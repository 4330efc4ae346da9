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

import weakref
from typing import TYPE_CHECKING, Mapping, Optional

from repro.common.config import Scope
from repro.memory.address_space import is_pm_addr
from repro.memory.cache import CacheLine
from repro.persistency.base import PersistencyModel

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
        #: Latest ``_drain_done`` of the drain in progress (None between
        #: drains): every SM is drained once the clock reaches it.
        self._drain_end: Optional[float] = None
        #: The machine's engine, held weakly (the engine's queue holds
        #: this model's parked drain events).
        self._engine = None

    def init_sm(self, sm: "SM") -> None:
        self._outstanding[sm.sm_id] = []
        self._engine = weakref.ref(sm.engine)

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
    ) -> float:
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
        return now + 1

    # ------------------------------------------------------------------
    # the epoch barrier
    # ------------------------------------------------------------------
    def _barrier(self, sm: "SM", now: float) -> float:
        """Flush + invalidate + wait: returns the completion time."""
        # Even an empty barrier costs a round trip to the L2 (the point
        # of device-wide ordering) - real __threadfence timing.
        latest = now + FENCE_COST + self.config.gpu.l2_latency
        l1 = sm.l1
        dropped = 0
        # An empty L1 has nothing to flush or drop, and an SM with
        # nothing in flight has nothing to wait for: neither is swept.
        if l1.holds_lines():
            for line in l1.dirty_pm_lines():
                ack = self.flush_line(sm, line, now)
                self._track(sm, ack.ack_time)
                self.stats.add("epoch.barrier_flushes")
            dropped = l1.invalidate_pm()
            if self.invalidate_volatile:
                dropped += l1.invalidate_all()
        # The barrier is unbuffered and scope-agnostic: it waits for every
        # persist of the SM still in flight, not only its own flushes.
        if self._outstanding[sm.sm_id]:
            latest = max(latest, self._outstanding_after(sm, now))
        self.stats.add("epoch.lines_invalidated", dropped)
        self.stats.add("epoch.barriers")
        return latest

    def ofence(self, sm: "SM", warp: "Warp", now: float) -> float:
        return self._barrier(sm, now)

    def dfence(self, sm: "SM", warp: "Warp", now: float) -> float:
        return self._barrier(sm, now)

    def threadfence(self, sm: "SM", warp: "Warp", scope: Scope, now: float) -> float:
        return self._barrier(sm, now)

    # ------------------------------------------------------------------
    # acquire / release lower onto barriers
    # ------------------------------------------------------------------
    def pacq(
        self, sm: "SM", warp: "Warp", addr: int, scope: Scope, value: int, now: float
    ) -> float:
        if value == 0:
            # Failed spin attempt: only the flag load's cost.
            return now + self.config.gpu.l1_hit_latency
        return self._barrier(sm, now)

    def prel(
        self, sm: "SM", warp: "Warp", addr: int, value: int, scope: Scope, now: float
    ) -> float:
        done = self._barrier(sm, now)
        # The flag becomes visible only once every prior persist is
        # durable — the unbuffered release pattern.
        sm.engine.schedule(done, lambda t: self._publish(sm, addr, value, t))
        return done

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
    ) -> float:
        ack = self.flush_line(sm, line, now)
        self._track(sm, ack.ack_time)
        self.stats.add("epoch.capacity_writebacks")
        return now + 1

    # ------------------------------------------------------------------
    # kernel boundary
    # ------------------------------------------------------------------
    def begin_drain(self, sm: "SM", now: float) -> None:
        latest = now
        l1 = sm.l1
        if l1.holds_lines():
            for line in l1.dirty_pm_lines():
                ack = self.flush_line(sm, line, now)
                latest = max(latest, ack.ack_time)
            l1.invalidate_pm()
        if self._outstanding[sm.sm_id]:
            latest = max(latest, self._outstanding_after(sm, now))
            self._outstanding[sm.sm_id] = []
        self._drain_done[sm.sm_id] = latest
        end = self._drain_end
        self._drain_end = latest if end is None or latest > end else end
        # Park an event at the completion time so the engine's clock
        # reaches it even when nothing else is scheduled.
        sm.engine.schedule(latest, self._parked)

    def _parked(self, now: float) -> None:
        """A parked drain event.  The engine schedules nothing else
        while an epoch machine drains, so the first one to reach the
        latest drain time is the event that drains the last SM."""
        end = self._drain_end
        if end is not None and now >= end:
            self._engine()._stop = True

    def drained(self, sm: "SM", now: float) -> bool:
        return now >= self._drain_done.get(sm.sm_id, now)

    def finish_drain(self, sm: "SM") -> None:
        # Parked events left queued after the drain (a tie at the
        # latest time, or a machine already drained) must not stop a
        # later launch.
        self._drain_end = None
