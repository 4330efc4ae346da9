"""Scenario runner: one (app, model, system) measurement."""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Any, Dict, Mapping, Optional

from repro.apps import build_app
from repro.common.config import (
    DrainPolicy,
    ModelName,
    PMPlacement,
    SBRPConfig,
    SystemConfig,
    paper_system,
    stable_hash,
)
from repro.crash import CrashHarness
from repro.system import GPUSystem

#: Stat under which a ``recover=True`` scenario records the recovery
#: kernel's runtime after its worst-case crash (the Figure 11 cell).
RECOVERY_STAT = "recovery.cycles"


@dataclass(frozen=True)
class ScenarioResult:
    """Outcome of one scenario run."""

    app: str
    label: str
    cycles: float
    stats: Mapping[str, float]
    #: Mode-specific structured payload (the fault campaign stores its
    #: per-crash-point classification here).  Must be plain JSON.
    detail: Optional[Dict[str, Any]] = None
    #: Counter snapshot of the run's registry (serve and soak runs);
    #: None otherwise.
    metrics: Optional[Dict[str, Any]] = None

    def stat(self, name: str, default: float = 0.0) -> float:
        return self.stats.get(name, default)

    def to_json(self) -> Dict[str, Any]:
        """Plain-JSON form; :meth:`from_json` reverses it exactly."""
        return {
            "app": self.app,
            "label": self.label,
            "cycles": self.cycles,
            "stats": dict(self.stats),
            "detail": self.detail,
            "metrics": self.metrics,
        }

    @staticmethod
    def from_json(data: Mapping[str, Any]) -> "ScenarioResult":
        return ScenarioResult(
            app=data["app"],
            label=data["label"],
            cycles=float(data["cycles"]),
            stats={k: float(v) for k, v in data["stats"].items()},
            detail=data.get("detail"),
            metrics=data.get("metrics"),
        )


def scenario_config(
    model: ModelName,
    placement: PMPlacement,
    nvm_bw_scale: float = 1.0,
    pb_coverage: float = 0.5,
    window: int = 6,
    drain_policy: DrainPolicy = DrainPolicy.WINDOW,
    demote_block_scope: bool = False,
) -> SystemConfig:
    """A Table 1 system with the given figure-specific knobs."""
    config = paper_system(model, placement, nvm_bw_scale=nvm_bw_scale)
    return replace(
        config,
        sbrp=SBRPConfig(
            pb_coverage=pb_coverage,
            window=window,
            drain_policy=drain_policy,
            demote_block_scope=demote_block_scope,
        ),
    ).validate()


def scenario_stem(
    app_name: str,
    config: SystemConfig,
    app_params: Optional[dict] = None,
    trace_tag: Optional[str] = None,
) -> str:
    """Filename stem for a scenario's trace artifacts.

    The stem ends in a short hash of (app, config, app_params) so sweep
    points that share a config label but differ in any parameter —
    including app params alone — never collide on disk.
    """
    digest = stable_hash(
        {
            "app": app_name,
            "config": config.to_dict(),
            "app_params": dict(app_params or {}),
        }
    )
    name = f"{app_name}-{config.label}"
    if trace_tag:
        name += f"-{trace_tag}"
    return f"{name}-{digest[:8]}"


def run_scenario(
    app_name: str,
    config: SystemConfig,
    app_params: Optional[dict] = None,
    verify: bool = True,
    trace_dir: Optional[str] = None,
    trace_tag: Optional[str] = None,
    recover: bool = False,
) -> ScenarioResult:
    """Run one app to completion under *config* and collect metrics.

    The run is traced iff *trace_dir* is set: it then writes one file,
    ``{stem}.trace.json`` (Chrome/Perfetto, readable by
    ``python -m repro.trace.report``), into that directory, with the
    stem from :func:`scenario_stem`; *trace_tag* adds a human-readable
    marker for sweep points that share a config label.

    ``recover=True`` then crashes the finished run at the paper's
    Figure 11 worst case and records the recovery kernel's cycles, run
    on a fresh machine, as the :data:`RECOVERY_STAT` stat; every other
    field is what the plain run reports.
    """
    system = GPUSystem(config, trace=trace_dir is not None)
    app = build_app(app_name, **(app_params or {}))
    app.setup(system)
    outcome = app.run(system)
    if verify or recover:
        system.sync()
    if verify:
        app.check(system, complete=True)
    if trace_dir is not None:
        stem = scenario_stem(app_name, config, app_params, trace_tag)
        system.write_trace(os.path.join(trace_dir, stem + ".trace.json"))
    stats = system.stats.snapshot()
    if recover:
        harness = CrashHarness(
            lambda: build_app(app_name, **(app_params or {})), config
        ).adopt(system, outcome)
        stats[RECOVERY_STAT] = harness.recovery_cycles_at_worst_case()
    return ScenarioResult(
        app=app_name,
        label=config.label,
        cycles=outcome.cycles,
        stats=stats,
    )
