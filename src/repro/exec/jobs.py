"""Serializable scenario jobs with stable content hashes.

A :class:`ScenarioJob` is everything needed to reproduce one simulator
measurement — app name, app constructor params, the full
:class:`~repro.common.config.SystemConfig`, and the measurement mode —
in a form that round-trips through JSON (so jobs can cross process
boundaries) and hashes stably (so the executor can memoise results).

Two hashes matter:

* :attr:`ScenarioJob.spec_hash` covers only the scenario specification,
  not the trace options.  (Trace files are named by
  :func:`~repro.bench.runner.scenario_stem`.)
* :attr:`ScenarioJob.key` is the executor's memo identity: the spec
  hash, or for a job with a ``trace_dir`` a hash of the whole job,
  trace options included.  A traced job is so never answered by an
  untraced run (which wrote no trace file), while an untraced job's
  ``trace_tag`` (which only names trace files) changes nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional

from repro.common.config import SystemConfig, stable_hash
from repro.common.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.bench.runner import ScenarioResult

#: Measurement modes a job can run in.
MODE_SCENARIO = "scenario"
#: Figure 11: the recovery-kernel runtime after a worst-case crash.  A
#: recovery job is never run or memoised itself: it is answered by its
#: :attr:`~ScenarioJob.twin`, the same cell as a ``recover=True``
#: scenario, whose one run reports both the crash-free cycles and the
#: recovery cycles.
MODE_RECOVERY = "recovery"
#: Fault campaign: run the app under an injected fault plan, crash at
#: every persist boundary, classify each recovery through the oracles.
MODE_FAULTS = "faults"
#: Conformance batch: run litmus programs through the operational
#: simulator and diff every observed image against the axiomatic model.
MODE_CHECK = "check"
#: Serving SLO measurement: run a planned request stream through the
#: transaction layer and report throughput, latency percentiles, and
#: worst-case recovery time (see :mod:`repro.serve.runner`).
MODE_SERVE = "serve"
#: Soak chain: drive a serving stream through a chronic fault timeline
#: with crash→recover→crash chains, the recovery oracle at every
#: reboot, and a zero-data-loss audit (see :mod:`repro.faults.soak`).
MODE_SOAK = "soak"

_MODES = (
    MODE_SCENARIO,
    MODE_RECOVERY,
    MODE_FAULTS,
    MODE_CHECK,
    MODE_SERVE,
    MODE_SOAK,
)

@dataclass(frozen=True)
class ScenarioJob:
    """One independent simulator measurement, ready to serialize."""

    app: str
    config: SystemConfig
    app_params: Mapping[str, Any] = field(default_factory=dict)
    verify: bool = True
    mode: str = MODE_SCENARIO
    #: Trace options are part of a traced job's :attr:`key` but never of
    #: :attr:`spec`: the run is traced iff ``trace_dir`` is set, and its
    #: trace file is a side effect an untraced run does not produce.
    trace_dir: Optional[str] = None
    trace_tag: Optional[str] = None
    #: Serialized fault plan (``FaultPlan.to_json()``) plus optional
    #: runner knobs (``max_crash_points``, ``crash_times``); required
    #: for — and only valid in — :data:`MODE_FAULTS`.
    fault: Optional[Mapping[str, Any]] = None
    #: Conformance batch payload (serialized programs + variants +
    #: stock models + SBRP mutants, see :mod:`repro.check.runner`); required
    #: for — and only valid in — :data:`MODE_CHECK`.
    check: Optional[Mapping[str, Any]] = None
    #: Soak payload (``timeline`` = serialized TimelinePlan, plus
    #: ``crash_every_batches`` / ``crash_fraction``); required for —
    #: and only valid in — :data:`MODE_SOAK`.
    soak: Optional[Mapping[str, Any]] = None
    #: Also crash the finished run at the Figure 11 worst case and
    #: record the recovery cycles (only valid in :data:`MODE_SCENARIO`;
    #: in the spec only when set, preserving pre-existing hashes).
    recover: bool = False

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ConfigError(f"unknown job mode {self.mode!r}; have {_MODES}")
        if (self.mode == MODE_FAULTS) != (self.fault is not None):
            raise ConfigError(
                "a fault plan is required for (and only valid in) "
                f"mode={MODE_FAULTS!r}"
            )
        if (self.mode == MODE_CHECK) != (self.check is not None):
            raise ConfigError(
                "a check payload is required for (and only valid in) "
                f"mode={MODE_CHECK!r}"
            )
        if (self.mode == MODE_SOAK) != (self.soak is not None):
            raise ConfigError(
                "a soak payload is required for (and only valid in) "
                f"mode={MODE_SOAK!r}"
            )
        if self.recover and self.mode != MODE_SCENARIO:
            raise ConfigError(
                f"recover is only valid in mode={MODE_SCENARIO!r}"
            )

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    @property
    def spec(self) -> Dict[str, Any]:
        """The hash-relevant scenario specification (no trace options).

        The ``fault`` key appears only when set, so pre-existing job
        specs keep their hashes.
        """
        spec = {
            "app": self.app,
            "app_params": dict(self.app_params),
            "config": self.config.to_dict(),
            "verify": self.verify,
            "mode": self.mode,
        }
        if self.fault is not None:
            spec["fault"] = dict(self.fault)
        if self.check is not None:
            spec["check"] = dict(self.check)
        if self.soak is not None:
            spec["soak"] = dict(self.soak)
        if self.recover:
            spec["recover"] = True
        return spec

    @property
    def spec_hash(self) -> str:
        """Content hash of the scenario spec."""
        return stable_hash(self.spec)

    @property
    def key(self) -> str:
        """Memo identity: the spec hash, or for a traced job a content
        hash of the whole job."""
        if self.trace_dir is not None:
            return stable_hash(self.to_json())
        return self.spec_hash

    @property
    def label(self) -> str:
        """Human-readable name for progress output and errors."""
        name = f"{self.app}@{self.config.label}"
        if self.mode != MODE_SCENARIO:
            name += f"[{self.mode}]"
        if self.fault is not None and self.fault.get("kind"):
            name += f"[{self.fault['kind']}]"
        if self.check is not None and self.check.get("mutants"):
            name += f"[{'+'.join(self.check['mutants'])}]"
        if self.soak is not None:
            timeline = self.soak.get("timeline") or {}
            kinds = sorted({w["kind"] for w in timeline.get("windows", ())})
            if kinds:
                name += f"[{'+'.join(kinds)}]"
        if self.trace_tag:
            name += f"[{self.trace_tag}]"
        return name

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_json(self) -> Dict[str, Any]:
        return {
            "app": self.app,
            "app_params": dict(self.app_params),
            "config": self.config.to_dict(),
            "verify": self.verify,
            "mode": self.mode,
            "trace_dir": self.trace_dir,
            "trace_tag": self.trace_tag,
            "fault": dict(self.fault) if self.fault is not None else None,
            "check": dict(self.check) if self.check is not None else None,
            "soak": dict(self.soak) if self.soak is not None else None,
            "recover": self.recover,
        }

    @staticmethod
    def from_json(data: Mapping[str, Any]) -> "ScenarioJob":
        return ScenarioJob(
            app=data["app"],
            app_params=dict(data["app_params"]),
            config=SystemConfig.from_dict(data["config"]),
            verify=data.get("verify", True),
            mode=data.get("mode", MODE_SCENARIO),
            trace_dir=data.get("trace_dir"),
            trace_tag=data.get("trace_tag"),
            fault=data.get("fault"),
            check=data.get("check"),
            soak=data.get("soak"),
            recover=data.get("recover", False),
        )

    # ------------------------------------------------------------------
    # one run, two answers
    # ------------------------------------------------------------------
    @property
    def twin(self) -> Optional["ScenarioJob"]:
        """The ``recover=True`` scenario job of this job's cell, or None.

        Its run answers a recovery job always, and a plain scenario job
        whenever it is already at hand (see :meth:`answer`); jobs of
        other modes have no twin.
        """
        if self.mode == MODE_RECOVERY or (
            self.mode == MODE_SCENARIO and not self.recover
        ):
            return replace(self, mode=MODE_SCENARIO, recover=True)
        return None

    def answer(self, result: "ScenarioResult") -> "ScenarioResult":
        """This job's result, made from its :attr:`twin`'s *result*:
        the recovery cycles for a recovery job, the crash-free run
        without them for a plain scenario job."""
        from repro.bench.runner import RECOVERY_STAT, ScenarioResult

        if self.mode == MODE_RECOVERY:
            cycles = result.stats[RECOVERY_STAT]
            return ScenarioResult(
                app=self.app,
                label=self.config.label,
                cycles=cycles,
                stats={RECOVERY_STAT: cycles},
            )
        stats = {k: v for k, v in result.stats.items() if k != RECOVERY_STAT}
        return replace(result, stats=stats)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def execute(self) -> "ScenarioResult":
        """Run the measurement in this process and return its result."""
        # bench.runner is imported lazily: repro.bench's figure drivers
        # depend on this subpackage, so the top-level import would cycle.
        from repro.bench.runner import run_scenario

        if self.mode == MODE_RECOVERY:
            return self.answer(self.twin.execute())
        if self.mode == MODE_FAULTS:
            return self._execute_faults()
        if self.mode == MODE_CHECK:
            from repro.check.runner import run_check_batch

            assert self.check is not None  # enforced by __post_init__
            return run_check_batch(dict(self.check))
        if self.mode == MODE_SERVE:
            from repro.serve.runner import run_serve_scenario

            return run_serve_scenario(
                self.app, self.config, dict(self.app_params)
            )
        if self.mode == MODE_SOAK:
            from repro.faults.soak import run_soak_scenario

            assert self.soak is not None  # enforced by __post_init__
            return run_soak_scenario(
                self.app, self.config, dict(self.app_params), dict(self.soak)
            )
        return run_scenario(
            self.app,
            self.config,
            dict(self.app_params),
            verify=self.verify,
            trace_dir=self.trace_dir,
            trace_tag=self.trace_tag,
            recover=self.recover,
        )

    def _execute_faults(self) -> "ScenarioResult":
        from repro.faults.runner import run_fault_scenario

        assert self.fault is not None  # enforced by __post_init__
        return run_fault_scenario(
            self.app, self.config, dict(self.app_params), dict(self.fault)
        )
