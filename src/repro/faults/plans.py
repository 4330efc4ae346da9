"""Declarative fault plans.

A :class:`FaultPlan` is a frozen, JSON-round-trippable description of
*one* way to abuse the persistence path.  Plans carry no behavior — the
:class:`~repro.faults.injector.FaultInjector` interprets them — so they
can ride inside a :class:`~repro.exec.jobs.ScenarioJob` spec, hash
stably, and cross process boundaries.

Every plan declares what a *correct* implementation is expected to do
under it (``expect``):

* ``consistent`` — every sampled crash point must recover cleanly.
  Clean power cuts and safe tears (the last in-flight line) model
  behavior the paper's ADR assumptions still permit.
* ``inconsistent`` — at least one crash point must be flagged.  Used for
  seeded application bugs: a plan that *fails* to flag one means the
  oracle has no teeth.
* ``hung`` — the run must wedge and be diagnosed (livelock / deadlock /
  drain stall), not spin forever.  Losing every ack is the canonical
  case.
* ``fault_raised`` — the injection itself must escalate to a typed
  :class:`~repro.common.errors.FaultInjectionError` (retry exhaustion).

Every expectation can fail: a plan whose runs no single expectation
fits has no place in the campaign.

Point plans fault individual persists.  A :class:`TimelinePlan` instead
schedules *chronic* fault windows over simulated time; soak chains
(:mod:`~repro.faults.soak`) run one schedule across a whole
crash→recover→crash chain.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Any, ClassVar, Dict, Mapping, Tuple, Type

from repro.common.errors import ConfigError

EXPECT_CONSISTENT = "consistent"
EXPECT_INCONSISTENT = "inconsistent"
EXPECT_HUNG = "hung"
EXPECT_FAULT_RAISED = "fault_raised"

EXPECTATIONS = (
    EXPECT_CONSISTENT,
    EXPECT_INCONSISTENT,
    EXPECT_HUNG,
    EXPECT_FAULT_RAISED,
)

#: kind -> plan class; populated by :func:`register_plan`.
PLAN_KINDS: Dict[str, Type["FaultPlan"]] = {}


def linear_backoff(base_cycles: float, fails: int) -> float:
    """Added latency when *fails* consecutive failures all retry, retry
    *k* waiting ``base_cycles * k``: the series ``base * n(n+1)/2``."""
    return base_cycles * fails * (fails + 1) / 2 if fails > 0 else 0.0


def register_plan(cls: Type["FaultPlan"]) -> Type["FaultPlan"]:
    if not cls.kind:
        raise ConfigError(f"{cls.__name__} must define a non-empty kind")
    if cls.kind in PLAN_KINDS:
        raise ConfigError(f"duplicate fault-plan kind {cls.kind!r}")
    PLAN_KINDS[cls.kind] = cls
    return cls


@dataclass(frozen=True)
class FaultPlan:
    """Base class: a serializable description of one injected fault."""

    kind: ClassVar[str] = ""
    #: Whether the plan can tear accepted lines at the crash instant
    #: (``FaultInjector.torn_records``).  Crash images under any other
    #: plan change only at persist acceptances, so they are imaged at
    #: those boundaries alone.
    tears: ClassVar[bool] = False

    #: What a correct implementation must do under this plan.
    expect: str = EXPECT_CONSISTENT

    def __post_init__(self) -> None:
        if self.expect not in EXPECTATIONS:
            raise ConfigError(
                f"unknown expectation {self.expect!r}; have {EXPECTATIONS}"
            )
        self.validate()

    def validate(self) -> None:
        """Subclass hook: raise :class:`ConfigError` on bad parameters."""

    @property
    def label(self) -> str:
        """Short human-readable name for job labels and report rows."""
        return self.kind

    def to_json(self) -> Dict[str, Any]:
        return {"kind": self.kind, **asdict(self)}

    @staticmethod
    def from_json(data: Mapping[str, Any]) -> "FaultPlan":
        payload = dict(data)
        kind = payload.pop("kind", None)
        cls = PLAN_KINDS.get(kind)
        if cls is None:
            raise ConfigError(
                f"unknown fault-plan kind {kind!r}; have {sorted(PLAN_KINDS)}"
            )
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ConfigError(
                f"fault plan {kind!r} got unknown fields {sorted(unknown)}"
            )
        return cls(**payload)


@register_plan
@dataclass(frozen=True)
class PowerCutPlan(FaultPlan):
    """Clean power failure: the durable image is exactly what the ADR
    domain accepted.  The baseline plan — crash points come from the
    persist log's acceptance boundaries, not from the plan itself."""

    kind: ClassVar[str] = "power_cut"


@register_plan
@dataclass(frozen=True)
class TornPersistPlan(FaultPlan):
    """Partial cache-line persists at the crash instant.

    Tears only the most recently accepted record, and only when the
    crash lands within *span_cycles* of its acceptance — the line caught
    mid-drain.  Ordering enforced by the models (fence successors flush
    only after the predecessor's ack) makes every such image formally
    reachable, so correct apps must still recover: ``expect`` defaults
    to ``consistent``.
    """

    kind: ClassVar[str] = "torn_persist"
    tears: ClassVar[bool] = True

    #: How long an accepted line stays tearable (the WPQ residency).
    span_cycles: float = 200.0
    #: Seeds the per-record choice of surviving words.
    seed: int = 1

    def validate(self) -> None:
        if self.span_cycles <= 0:
            raise ConfigError("torn_persist span_cycles must be positive")


@register_plan
@dataclass(frozen=True)
class DrainDropPlan(FaultPlan):
    """A persist-buffer drain bug: every *drop_every*-th flushed line is
    acknowledged but never becomes durable (visible in the volatile
    image, absent from every crash image).  It breaks the hardware
    contract: a correct app recovers or not depending on which lines
    drop, so no campaign cell sweeps it.  Its one check is the litmus
    case ``mp_ofence@sbrp#drain_drop``, whose run the formal oracle must
    flag ``unreachable_state``.  A run that loses a line its recovery
    needs is inconsistent, so ``expect`` defaults to ``inconsistent``."""

    kind: ClassVar[str] = "drain_drop"

    expect: str = EXPECT_INCONSISTENT
    drop_every: int = 2

    def validate(self) -> None:
        if self.drop_every < 1:
            raise ConfigError("drain_drop drop_every must be >= 1")


@register_plan
@dataclass(frozen=True)
class AckDelayPlan(FaultPlan):
    """ACTR stress: every *every*-th persist's acknowledgement is delayed
    by *delay_cycles*.  Durability is unaffected — only the SM learns
    late — so a correct implementation stays consistent (and merely
    slower)."""

    kind: ClassVar[str] = "ack_delay"

    delay_cycles: float = 2000.0
    every: int = 2

    def validate(self) -> None:
        if self.delay_cycles <= 0:
            raise ConfigError("ack_delay delay_cycles must be positive")
        if self.every < 1:
            raise ConfigError("ack_delay every must be >= 1")


@register_plan
@dataclass(frozen=True)
class AckLossPlan(FaultPlan):
    """ACTR starvation: after the first *lose_after* persists, every
    *lose_every*-th acknowledgement is lost entirely.  The ACTR never
    reaches zero again, so the machine must wedge **diagnosably**
    (deadlock, drain stall, or the engine watchdog) — the expectation is
    ``hung``, and an undetected infinite spin is the failure mode this
    plan exists to catch."""

    kind: ClassVar[str] = "ack_loss"

    expect: str = EXPECT_HUNG
    lose_after: int = 4
    lose_every: int = 1

    def validate(self) -> None:
        if self.lose_after < 0:
            raise ConfigError("ack_loss lose_after must be non-negative")
        if self.lose_every < 1:
            raise ConfigError("ack_loss lose_every must be >= 1")


@register_plan
@dataclass(frozen=True)
class NVMTransientPlan(FaultPlan):
    """Transient NVM write failures: every *fail_every*-th persist fails
    *fails* times before succeeding, each retry backing off linearly by
    *backoff_cycles*.  Within the retry budget this only adds latency
    (``expect="consistent"``); with ``fails > max_retries`` the write
    escalates to :class:`~repro.common.errors.FaultInjectionError`
    (``expect="fault_raised"``)."""

    kind: ClassVar[str] = "nvm_transient"

    fail_every: int = 5
    fails: int = 2
    max_retries: int = 5
    backoff_cycles: float = 400.0

    def validate(self) -> None:
        if self.fail_every < 1:
            raise ConfigError("nvm_transient fail_every must be >= 1")
        if self.fails < 0 or self.max_retries < 0:
            raise ConfigError("nvm_transient fails/max_retries must be >= 0")
        if self.backoff_cycles <= 0:
            raise ConfigError("nvm_transient backoff_cycles must be positive")

    @property
    def label(self) -> str:
        if self.fails > self.max_retries:
            return f"{self.kind}:exhausted"
        return self.kind

    @property
    def retry_delay(self) -> float:
        """Added acceptance latency when the retries succeed."""
        return linear_backoff(self.backoff_cycles, self.fails)


# ----------------------------------------------------------------------
# chronic fault timelines
# ----------------------------------------------------------------------
WINDOW_BROWNOUT = "brownout"
WINDOW_BURST = "burst"
WINDOW_ACK_STORM = "ack_storm"
WINDOW_WPQ_SQUEEZE = "wpq_squeeze"

WINDOW_KINDS = (
    WINDOW_BROWNOUT,
    WINDOW_BURST,
    WINDOW_ACK_STORM,
    WINDOW_WPQ_SQUEEZE,
)


@dataclass(frozen=True)
class FaultWindow:
    """One chronic fault process, active over ``[start, end)`` cycles.

    ``intensity`` is kind-specific:

    * ``brownout`` — NVM drain bandwidth is multiplied by it (in
      ``(0, 1]``); overlapping brownouts compound;
    * ``burst`` — every ``every``-th persist issued inside the window
      fails this many times in a row, each retry backing off linearly
      (escalating to ``FaultInjectionError`` past the retry budget);
    * ``ack_storm`` — acknowledgements that would land inside the window
      are deferred until this many cycles after it closes (a finite,
      survivable cousin of :class:`AckLossPlan`);
    * ``wpq_squeeze`` — WPQ capacity is clamped to this many entries.
    """

    kind: str
    start: float
    end: float
    intensity: float = 1.0
    #: ``burst`` only: every Nth persist inside the window is hit.
    every: int = 1

    def __post_init__(self) -> None:
        if self.kind not in WINDOW_KINDS:
            raise ConfigError(
                f"unknown fault-window kind {self.kind!r}; have {WINDOW_KINDS}"
            )
        if self.start < 0 or self.end <= self.start:
            raise ConfigError(
                f"fault window needs 0 <= start < end, got [{self.start}, {self.end})"
            )
        if self.every < 1:
            raise ConfigError("fault window every must be >= 1")
        if self.kind == WINDOW_BROWNOUT and not 0 < self.intensity <= 1:
            raise ConfigError("brownout intensity is a bandwidth scale in (0, 1]")
        if self.kind == WINDOW_BURST and self.intensity < 1:
            raise ConfigError("burst intensity is a failure count >= 1")
        if self.kind == WINDOW_ACK_STORM and self.intensity < 0:
            raise ConfigError("ack_storm intensity (post-window cycles) must be >= 0")
        if self.kind == WINDOW_WPQ_SQUEEZE and self.intensity < 1:
            raise ConfigError("wpq_squeeze intensity is an entry clamp >= 1")

    def contains(self, time: float) -> bool:
        return self.start <= time < self.end


@register_plan
@dataclass(frozen=True)
class TimelinePlan(FaultPlan):
    """A schedule of chronic fault windows over global chain time.

    Window times are soak-chain cycles: each rebooted machine's injector
    carries a ``time_offset``, so one schedule spans a whole
    crash→recover→crash chain deterministically."""

    kind: ClassVar[str] = "timeline"

    windows: Tuple[FaultWindow, ...] = ()
    #: Burst retry budget and its linear backoff step.
    device_max_retries: int = 5
    device_backoff_cycles: float = 400.0

    def __post_init__(self) -> None:
        # from_json rebuilds via cls(**payload): coerce plain dicts
        # (asdict output) back into FaultWindows.
        coerced = tuple(
            w if isinstance(w, FaultWindow) else FaultWindow(**w)
            for w in self.windows
        )
        object.__setattr__(self, "windows", coerced)
        super().__post_init__()

    def validate(self) -> None:
        if self.device_max_retries < 0:
            raise ConfigError("timeline device_max_retries must be >= 0")
        if self.device_backoff_cycles <= 0:
            raise ConfigError("timeline device_backoff_cycles must be positive")

    def to_json(self) -> Dict[str, Any]:
        # asdict keeps the windows tuple; emit a list so the payload is
        # stable through a real JSON round-trip (tuples load as lists).
        payload = super().to_json()
        payload["windows"] = list(payload["windows"])
        return payload

    @property
    def label(self) -> str:
        kinds = sorted({w.kind for w in self.windows})
        return f"{self.kind}:{'+'.join(kinds) if kinds else 'empty'}"
