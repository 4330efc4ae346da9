"""The epoch persistency family (GPM's implicit model + enhanced epoch).

Both models express every PMO through a single *epoch barrier*: the
issuing warp flushes the SM's dirty PM lines, invalidates cached PM data,
and stalls until every flushed persist is acknowledged as durable
(unbuffered, scope-agnostic — Section 4 of the paper).

``EpochModel`` is the paper's enhanced baseline: the barrier touches only
PM lines.  ``GPMModel`` (see :mod:`repro.persistency.gpm`) additionally
invalidates volatile lines, because GPM's real implementation reuses the
system-scope ``__threadfence_sys`` which cannot distinguish PM from
volatile data.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

from repro.common.config import Scope
from repro.memory.address_space import is_pm_addr
from repro.memory.cache import CacheLine
from repro.persistency.base import Outcome, PersistencyModel

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.sm import SM
    from repro.gpu.warp import Warp

#: Instruction overhead of executing the fence itself.
FENCE_COST = 4


class EpochModel(PersistencyModel):
    """Enhanced epoch persistency: PM-only epoch barriers."""

    #: Subclass hook: GPM's system fence also wipes volatile lines.
    invalidate_volatile = False

    def __init__(self, config, stats) -> None:
        super().__init__(config, stats)
        #: Per-SM ack times of flushed-but-unacknowledged persists.  An
        #: epoch barrier cannot tell which warp issued which persist, so
        #: it waits for *all* of them — the model's false ordering.
        self._outstanding: dict[int, list[float]] = {}
        #: Per-SM completion time of the end-of-kernel drain.
        self._drain_done: dict[int, float] = {}

    def init_sm(self, sm: "SM") -> None:
        self._outstanding[sm.sm_id] = []

    def _track(self, sm: "SM", ack_time: float) -> None:
        self._outstanding[sm.sm_id].append(ack_time)

    def _outstanding_after(self, sm: "SM", now: float) -> float:
        """Latest pending ack; prunes already-delivered ones."""
        pending = [t for t in self._outstanding[sm.sm_id] if t > now]
        self._outstanding[sm.sm_id] = pending
        return max(pending, default=now)

    # ------------------------------------------------------------------
    # stores: plain write-back caching of PM lines between barriers
    # ------------------------------------------------------------------
    def pm_store(
        self,
        sm: "SM",
        warp: "Warp",
        line_addr: int,
        words: Mapping[int, int],
        now: float,
    ) -> Outcome:
        line = sm.l1.lookup(line_addr, now)
        if line is None:
            victim = sm.l1.victim_for(line_addr)
            if victim.valid and victim.dirty and victim.is_pm:
                self.evict_dirty_pm(sm, warp, victim, now)
            sm.l1.fill(victim, line_addr, is_pm=True, now=now)
            line = victim
            self.stats.add("l1.write_miss_pm")
        else:
            self.stats.add("l1.write_hit_pm")
        line.write_words(words)
        if sm.tracer is not None:
            sm.tracer.persist_store(sm.sm_id, line_addr, now)
        return Outcome.complete(now + 1)

    # ------------------------------------------------------------------
    # the epoch barrier
    # ------------------------------------------------------------------
    def _barrier(self, sm: "SM", now: float) -> float:
        """Flush + invalidate + wait: returns the completion time."""
        # Even an empty barrier costs a round trip to the L2 (the point
        # of device-wide ordering) - real __threadfence timing.
        latest = now + FENCE_COST + self.config.gpu.l2_latency
        for line in sm.l1.dirty_pm_lines():
            ack = self.flush_line(sm, line, now)
            self._track(sm, ack.ack_time)
            self.stats.add("epoch.barrier_flushes")
        # The barrier is unbuffered and scope-agnostic: it waits for every
        # persist of the SM still in flight, not only its own flushes.
        latest = max(latest, self._outstanding_after(sm, now))
        dropped = sm.l1.invalidate_pm()
        if self.invalidate_volatile:
            dropped += sm.l1.invalidate_all()
        self.stats.add("epoch.lines_invalidated", dropped)
        self.stats.add("epoch.barriers")
        if self.stats.metered:
            self.stats.observe("epoch.barrier_wait", latest - now)
        return latest

    def ofence(self, sm: "SM", warp: "Warp", now: float) -> Outcome:
        return Outcome.complete(self._barrier(sm, now))

    def dfence(self, sm: "SM", warp: "Warp", now: float) -> Outcome:
        return Outcome.complete(self._barrier(sm, now))

    def threadfence(self, sm: "SM", warp: "Warp", scope: Scope, now: float) -> Outcome:
        return Outcome.complete(self._barrier(sm, now))

    # ------------------------------------------------------------------
    # acquire / release lower onto barriers
    # ------------------------------------------------------------------
    def pacq(
        self, sm: "SM", warp: "Warp", addr: int, scope: Scope, value: int, now: float
    ) -> Outcome:
        if value == 0:
            # Failed spin attempt: only the flag load's cost.
            return Outcome.complete(now + self.config.gpu.l1_hit_latency)
        return Outcome.complete(self._barrier(sm, now))

    def prel(
        self, sm: "SM", warp: "Warp", addr: int, value: int, scope: Scope, now: float
    ) -> Outcome:
        done = self._barrier(sm, now)
        # The flag becomes visible only once every prior persist is
        # durable — the unbuffered release pattern.
        sm.engine.schedule(done, lambda t: self._publish(sm, addr, value, t))
        return Outcome.complete(done)

    def _publish(self, sm: "SM", addr: int, value: int, now: float) -> None:
        self.publish_flag(sm, addr, value)
        if is_pm_addr(addr):
            # A PM-resident release variable is itself a persist; the
            # barrier already waited for every prior persist's ack, so
            # writing it now keeps it ordered after them.  Tracked like
            # any flush so later barriers and the kernel-end drain wait
            # for its acceptance.
            line_addr = addr - addr % sm.line_size
            ack = sm.subsystem.persist_line(
                now, sm.sm_id, line_addr, {addr: value}
            )
            self._track(sm, ack.ack_time)
            self.stats.add("epoch.flag_persists")

    # ------------------------------------------------------------------
    # evictions: plain write-back, unordered within the epoch
    # ------------------------------------------------------------------
    def evict_dirty_pm(
        self, sm: "SM", warp: "Warp", line: CacheLine, now: float
    ) -> Outcome:
        ack = self.flush_line(sm, line, now)
        self._track(sm, ack.ack_time)
        self.stats.add("epoch.capacity_writebacks")
        return Outcome.complete(now + 1)

    # ------------------------------------------------------------------
    # kernel boundary
    # ------------------------------------------------------------------
    def begin_drain(self, sm: "SM", now: float) -> None:
        latest = now
        for line in sm.l1.dirty_pm_lines():
            ack = self.flush_line(sm, line, now)
            latest = max(latest, ack.ack_time)
        latest = max(latest, self._outstanding_after(sm, now))
        self._outstanding[sm.sm_id] = []
        sm.l1.invalidate_pm()
        self._drain_done[sm.sm_id] = latest
        # Park an event at the completion time so the engine's clock
        # reaches it even when nothing else is scheduled.
        sm.engine.schedule(latest, lambda t: None)

    def drained(self, sm: "SM", now: float) -> bool:
        return now >= self._drain_done.get(sm.sm_id, now)
