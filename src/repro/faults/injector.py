"""The fault injector: plan interpretation at the persistence path.

One :class:`FaultInjector` serves one :class:`~repro.system.GPUSystem`
(it carries mutable counters, so never share an instance between
systems).  The memory subsystem and the persistency models consult it at
four points:

* :meth:`persist_delay` — extra latency before the NVM controller
  accepts a write (transient failures with retry/backoff; may escalate
  to :class:`~repro.common.errors.FaultInjectionError`);
* :meth:`transform_ack` — the time the SM learns about durability
  (delayed acks) or never does (lost acks, ``inf``);
* :meth:`drop_flush` — a drained line that never becomes durable;
* :meth:`torn_records` — crash-time rewriting of the last accepted
  record into a partial (torn) line write.

A :class:`~repro.faults.plans.TimelinePlan` is read at the *global*
chain time ``time_offset + now``: bursts fail persists in
:meth:`persist_delay`, ack storms defer acks in :meth:`transform_ack`,
and the NVM controllers consult :meth:`nvm_scale_at` /
:meth:`wpq_limit_at` for brownouts and WPQ squeezes (the memory
subsystem wires them up as the controllers' ``throttle``, because
bandwidth and capacity are controller state, not per-persist events).

All decisions are pure functions of the plan, its seed, and simulation-
deterministic counters — the same run always injects the same faults,
which is what makes campaign reports byte-identical across workers.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.common.errors import FaultInjectionError, TornPersistError
from repro.faults.plans import (
    WINDOW_ACK_STORM,
    WINDOW_BROWNOUT,
    WINDOW_BURST,
    WINDOW_WPQ_SQUEEZE,
    AckDelayPlan,
    AckLossPlan,
    DrainDropPlan,
    FaultPlan,
    FaultWindow,
    NVMTransientPlan,
    TimelinePlan,
    TornPersistPlan,
    linear_backoff,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.memory.subsystem import PersistRecord

_MASK64 = (1 << 64) - 1


def _mix(seed: int, n: int) -> int:
    """SplitMix64-style deterministic hash of (seed, n)."""
    x = (n * 0x9E3779B97F4A7C15 + seed * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


class FaultInjector:
    """Interprets one :class:`FaultPlan` against one simulated system."""

    def __init__(self, plan: FaultPlan, time_offset: float = 0.0) -> None:
        self.plan = plan
        #: Global chain time of this machine's boot (timeline plans).
        self.time_offset = float(time_offset)
        #: Injection tallies (keys are stable; reports embed them).
        self.counts: Dict[str, int] = {}
        self._flushes_seen = 0

    def _bump(self, key: str, by: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    def _active(self, kind: str, now: float) -> List[FaultWindow]:
        """Timeline windows of *kind* open at machine-local *now*."""
        if not isinstance(self.plan, TimelinePlan):
            return []
        time = self.time_offset + now
        return [w for w in self.plan.windows if w.kind == kind and w.contains(time)]

    # ------------------------------------------------------------------
    # NVM controller throttle (timeline plans)
    # ------------------------------------------------------------------
    def nvm_scale_at(self, now: float) -> float:
        """Drain-bandwidth multiplier at machine-local *now*."""
        scale = 1.0
        for window in self._active(WINDOW_BROWNOUT, now):
            scale *= window.intensity
        return scale

    def wpq_limit_at(self, now: float) -> int:
        """Active WPQ entry clamp (0 = unclamped)."""
        limits = [int(w.intensity) for w in self._active(WINDOW_WPQ_SQUEEZE, now)]
        return min(limits) if limits else 0

    # ------------------------------------------------------------------
    # NVM write path
    # ------------------------------------------------------------------
    def persist_delay(self, seq: int, now: float = 0.0) -> float:
        """Extra cycles before the NVM controller sees persist *seq*.

        *now* is the issue time; point plans ignore it, timeline plans
        use it to decide which burst windows apply.
        """
        plan = self.plan
        if isinstance(plan, TimelinePlan):
            return self._burst_delay(plan, seq, now)
        if not isinstance(plan, NVMTransientPlan):
            return 0.0
        if seq % plan.fail_every != 0:
            return 0.0
        if plan.fails > plan.max_retries:
            self._bump("nvm_retry_exhausted")
            raise FaultInjectionError(
                f"NVM write (persist #{seq}) failed {plan.fails} times, "
                f"exceeding the retry budget of {plan.max_retries}"
            )
        self._bump("nvm_transient_failures", plan.fails)
        return plan.retry_delay

    def _burst_delay(self, plan: TimelinePlan, seq: int, now: float) -> float:
        fails = max(
            (
                int(w.intensity)
                for w in self._active(WINDOW_BURST, now)
                if seq % w.every == 0
            ),
            default=0,
        )
        if not fails:
            return 0.0
        if fails > plan.device_max_retries:
            self._bump("nvm_retry_exhausted")
            raise FaultInjectionError(
                f"chronic NVM burst: persist #{seq} failed {fails} times, "
                f"exceeding the device retry budget of {plan.device_max_retries}"
            )
        self._bump("nvm_transient_failures", fails)
        return linear_backoff(plan.device_backoff_cycles, fails)

    def transform_ack(self, seq: int, accept: float, ack: float) -> float:
        """When the issuing SM learns about durability (``inf`` = never)."""
        plan = self.plan
        if isinstance(plan, AckDelayPlan) and seq % plan.every == 0:
            self._bump("delayed_acks")
            return ack + plan.delay_cycles
        if isinstance(plan, AckLossPlan):
            past = seq - plan.lose_after
            if past > 0 and past % plan.lose_every == 0:
                self._bump("lost_acks")
                return float("inf")
        if isinstance(plan, TimelinePlan) and math.isfinite(ack):
            deferred = ack
            for window in self._active(WINDOW_ACK_STORM, ack):
                deferred = max(
                    deferred, window.end + window.intensity - self.time_offset
                )
            if deferred != ack:
                self._bump("stormed_acks")
            return deferred
        return ack

    # ------------------------------------------------------------------
    # persist-buffer drain path
    # ------------------------------------------------------------------
    def drop_flush(self, sm_id: int, line_addr: int) -> bool:
        """True when this drained line must never become durable."""
        plan = self.plan
        if not isinstance(plan, DrainDropPlan):
            return False
        index = self._flushes_seen
        self._flushes_seen += 1
        if index % plan.drop_every == 0:
            self._bump("dropped_flushes")
            return True
        return False

    # ------------------------------------------------------------------
    # crash-image path
    # ------------------------------------------------------------------
    def torn_records(
        self, records: List["PersistRecord"], time: float
    ) -> List["PersistRecord"]:
        """Rewrite *records* (accepted by *time*, sorted by acceptance)
        so the last one tears if it is still resident in the WPQ at the
        crash."""
        plan = self.plan
        if not isinstance(plan, TornPersistPlan) or not records:
            return records
        last = records[-1]
        if time - last.accept_time > plan.span_cycles:
            return records
        return records[:-1] + [self._tear(last)]

    def _tear(self, record: "PersistRecord") -> "PersistRecord":
        if not record.words:
            raise TornPersistError(
                f"persist #{record.seq} has no words to tear"
            )
        addrs = sorted(record.words)
        bits = _mix(self.plan.seed, record.seq)
        kept = [a for i, a in enumerate(addrs) if (bits >> (i % 64)) & 1]
        if len(kept) == len(addrs):
            # A tear must be partial: always lose at least one word.
            kept = kept[:-1]
        self._bump("torn_records")
        self._bump("torn_words_dropped", len(addrs) - len(kept))
        return record._replace(words={a: record.words[a] for a in kept})


def build_injector(plan: Optional[FaultPlan]) -> Optional[FaultInjector]:
    """A fresh injector for *plan*, or None for fault-free runs."""
    return None if plan is None else FaultInjector(plan)
