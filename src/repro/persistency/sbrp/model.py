"""The SBRP persistency model (Sections 5 and 6 of the paper).

Control flow summary:

* **PM store** — coalesces into the line's live PB entry unless the
  issuing warp has an ordering point younger than that entry, in which
  case the warp stalls in the EDM until the entry's flush is
  acknowledged (Section 6.1, "Persist operation").
* **oFence** — appends (or coalesces into) an ordering entry; never
  stalls: buffering is the whole point (Box 2 / Section 6.1).
* **pAcq / pRel, block scope** — ordering entries in the shared per-SM
  FIFO; the FIFO position plus the FSM enforce durability order without
  any NVM round trip — the "scopes" win of Figure 7.
* **pAcq / pRel, device scope** — pRel stalls its warp (ODM→EDM) while
  the PB force-drains up to the release; the flag publishes when the
  ACTR hits zero.  pAcq invalidates clean PM lines to avoid stale reads.
* **dFence** — like a device-scope release without a flag (Section 5).
* **Eviction** — bypass-flush when no ordering entry precedes the
  line's PB entry, else stall in the EDM until outstanding flushes
  complete (Section 6.1, "Eviction").
* **Drain** — eager / lazy / window policies (Section 6.2; Figure 10c).
"""

from __future__ import annotations

import math
import weakref
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Set

from repro.common.bitmask import WarpMask
from repro.common.config import DrainPolicy, Scope, SystemConfig
from repro.common.errors import PersistencyError
from repro.metrics.registry import MetricsRegistry
from repro.memory.address_space import is_pm_addr
from repro.memory.cache import CacheLine
from repro.persistency.base import PersistencyModel
from repro.persistency.sbrp.pbuffer import EntryKind, PBEntry
from repro.persistency.sbrp.state import ActrZeroAction, SBRPState

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.sm import SM
    from repro.gpu.warp import Warp

#: Fraction of PB occupancy above which the lazy policy starts draining.
LAZY_PRESSURE = 0.75


class SBRPModel(PersistencyModel):
    """Scoped Buffered Release Persistency."""

    def __init__(self, config: SystemConfig, stats: MetricsRegistry) -> None:
        super().__init__(config, stats)
        self.states: Dict[int, SBRPState] = {}
        # Drain policy knobs are fixed for the model's lifetime (configs
        # are replaced, never mutated); cache them off the attribute
        # chain for the per-entry _policy_allows test.
        self._drain_policy = config.sbrp.drain_policy
        self._window = config.sbrp.window
        #: Ids of the SMs a ``GPU.sync`` drain still waits for.
        self._draining: Set[int] = set()

    def init_sm(self, sm: "SM") -> None:
        self.states[sm.sm_id] = SBRPState(
            sm.sm_id,
            pb_entries=self.config.sbrp.pb_entries(self.config.gpu),
            max_warps=self.config.gpu.max_warps_per_sm,
        )

    # ==================================================================
    # persist operation
    # ==================================================================
    def pm_store(
        self,
        sm: "SM",
        warp: "Warp",
        line_addr: int,
        words: Mapping[int, int],
        now: float,
    ) -> Optional[float]:
        st = self.states[sm.sm_id]
        bit = st.warp_bit(warp.slot)
        line = sm.l1.lookup(line_addr, now)
        if line is not None:
            if line.dirty and line.pb_index is not None:
                entry = st.pb.get(line.pb_index)
                if entry is not None:
                    if st.coalesce_blocked(warp.slot, entry):
                        # A later ordering point forbids coalescing; the
                        # warp waits in the EDM until the old persist is
                        # acknowledged, then retries with a fresh entry.
                        st.edm.set(warp.slot)
                        entry.waiters.append(warp)
                        st.force_until_seq = max(st.force_until_seq, entry.seq)
                        self.stats.add("sbrp.edm_stalls")
                        if sm.tracer is not None:
                            sm.tracer.persist_delay(sm.sm_id, line_addr, "edm")
                        self._schedule_pump(sm)
                        return None
                    line.write_words(words)
                    st.pb.merge(entry, bit)
                    self.stats.add("sbrp.stores_coalesced")
                    self.stats.add("l1.write_hit_pm")
                    if sm.tracer is not None:
                        sm.tracer.persist_store(sm.sm_id, line_addr, now)
                    return now + 1
            self.stats.add("l1.write_hit_pm")
            return self._attach_persist(sm, st, warp, line, line_addr, words, now)
        victim = sm.l1.victim_for(line_addr)
        if victim.valid and victim.dirty and victim.is_pm:
            if self.evict_dirty_pm(sm, warp, victim, now) is None:
                return None
        sm.l1.fill(victim, line_addr, is_pm=True, now=now)
        self.stats.add("l1.write_miss_pm")
        return self._attach_persist(sm, st, warp, victim, line_addr, words, now)

    def _attach_persist(
        self,
        sm: "SM",
        st: SBRPState,
        warp: "Warp",
        line: CacheLine,
        line_addr: int,
        words: Mapping[int, int],
        now: float,
    ) -> Optional[float]:
        if st.pb.is_full():
            return self._stall_for_space(sm, st, warp)
        entry = st.pb.append(EntryKind.PERSIST, st.warp_bit(warp.slot), line_addr)
        line.pb_index = entry.seq
        line.dirty = True
        line.is_pm = True
        line.write_words(words)
        self.stats.add("sbrp.persist_entries")
        if sm.tracer is not None:
            sm.tracer.persist_store(sm.sm_id, line_addr, now)
            self._trace_pb(sm, st, now)
        self._schedule_pump(sm)
        return now + 1

    def _stall_for_space(self, sm: "SM", st: SBRPState, warp: "Warp") -> None:
        st.space_waiters.append(warp)
        st.edm.set(warp.slot)
        self.stats.add("sbrp.pb_full_stalls")
        self._schedule_pump(sm)
        return None

    def _trace_pb(self, sm: "SM", st: SBRPState, now: float) -> None:
        """Emit PB-occupancy / ACTR counter samples (tracing only)."""
        track = f"sm{sm.sm_id}"
        sm.tracer.counter(track, "pb_occupancy", now, float(st.pb.live_count()))
        sm.tracer.counter(track, "actr", now, float(st.actr))

    # ==================================================================
    # fences
    # ==================================================================
    def ofence(self, sm: "SM", warp: "Warp", now: float) -> Optional[float]:
        st = self.states[sm.sm_id]
        bit = st.warp_bit(warp.slot)
        tail = st.pb.tail()
        if tail is not None and tail.kind is EntryKind.OFENCE:
            # Back-to-back oFences coalesce into one entry (Section 6.1).
            st.pb.merge(tail, bit)
            st.note_order_point(warp.slot, tail)
            self.stats.add("sbrp.ofence_coalesced")
            return now + 1
        if st.pb.is_full():
            return self._stall_for_space(sm, st, warp)
        entry = st.pb.append(EntryKind.OFENCE, bit)
        st.note_order_point(warp.slot, entry)
        self.stats.add("sbrp.ofences")
        self._schedule_pump(sm)
        return now + 1

    def dfence(self, sm: "SM", warp: "Warp", now: float) -> Optional[float]:
        st = self.states[sm.sm_id]
        if st.pb.is_full():
            return self._stall_for_space(sm, st, warp)
        bit = st.warp_bit(warp.slot)
        entry = st.pb.append(EntryKind.DFENCE, bit)
        entry.waiting_warp = warp
        st.note_order_point(warp.slot, entry)
        st.odm.set(warp.slot)
        st.force_until_seq = max(st.force_until_seq, entry.seq)
        self.stats.add("sbrp.dfences")
        self._schedule_pump(sm)
        return None

    def threadfence(
        self, sm: "SM", warp: "Warp", scope: Scope, now: float
    ) -> Optional[float]:
        # Conventional fences order PM writes too (Section 5.2).  Block
        # scope stays within the SM; wider scopes require durability-like
        # draining plus invalidation, which dFence provides.
        if scope is Scope.BLOCK:
            return self.ofence(sm, warp, now)
        return self.dfence(sm, warp, now)

    # ==================================================================
    # scoped acquire / release
    # ==================================================================
    def _effective_scope(self, scope: Scope) -> Scope:
        """Figure 7's ablation: optionally demote block scope to device."""
        if scope is Scope.BLOCK and self.config.sbrp.demote_block_scope:
            return Scope.DEVICE
        return scope

    def pacq(
        self, sm: "SM", warp: "Warp", addr: int, scope: Scope, value: int, now: float
    ) -> Optional[float]:
        scope = self._effective_scope(scope)
        if value == 0:
            return now + self.config.gpu.l1_hit_latency
        st = self.states[sm.sm_id]
        if st.pb.is_full():
            return self._stall_for_space(sm, st, warp)
        bit = st.warp_bit(warp.slot)
        entry = st.pb.append(EntryKind.PACQ, bit, scope=scope)
        st.note_order_point(warp.slot, entry)
        self._schedule_pump(sm)
        if scope is Scope.BLOCK:
            self.stats.add("sbrp.pacq_block")
            return now + self.config.gpu.l1_hit_latency
        # Device scope: drop clean PM lines so later reads see other
        # threadblocks' released data.
        sm.l1.invalidate_clean_pm()
        self.stats.add("sbrp.pacq_device")
        return now + self.config.gpu.l2_latency

    def prel(
        self, sm: "SM", warp: "Warp", addr: int, value: int, scope: Scope, now: float
    ) -> Optional[float]:
        scope = self._effective_scope(scope)
        st = self.states[sm.sm_id]
        if st.pb.is_full():
            return self._stall_for_space(sm, st, warp)
        bit = st.warp_bit(warp.slot)
        entry = st.pb.append(
            EntryKind.PREL, bit, scope=scope, flag_addr=addr, flag_value=value
        )
        st.note_order_point(warp.slot, entry)
        if scope is Scope.BLOCK:
            # Buffered release: the FIFO + FSM enforce the durability
            # order, so the flag publishes (becomes visible) immediately
            # and the warp never leaves the SM — the key scope win.  A
            # PM-resident flag is itself a persist ordered after the
            # warp's earlier persists, and WPQ acceptance order is not
            # global across partitions, so its NVM write is deferred to
            # the entry's FIFO retirement (see _order_point_at_head) —
            # persisting here could make the flag durable before
            # po-earlier persists stuck behind a full WPQ.
            self.publish_flag(sm, addr, value)
            self.stats.add("sbrp.prel_block")
            self._schedule_pump(sm)
            return now + 2
        entry.waiting_warp = warp
        st.odm.set(warp.slot)
        st.force_until_seq = max(st.force_until_seq, entry.seq)
        self.stats.add("sbrp.prel_device")
        self._schedule_pump(sm)
        return None

    def _publish(self, sm: "SM", addr: int, value: int, now: float) -> None:
        self.publish_flag(sm, addr, value)
        if is_pm_addr(addr):
            self._persist_flag(sm, addr, value, now)

    def _persist_flag(self, sm: "SM", addr: int, value: int, now: float) -> None:
        """Write a PM-resident release flag to the persistence domain.

        The flag is a persist in its own right, so it is tracked like any
        drained line: the ACTR covers it and the kernel-end drain waits
        for its acceptance — otherwise a crash right after sync() could
        miss the flag the program just released.
        """
        st = self.states[sm.sm_id]
        line_addr = addr - addr % sm.line_size
        ack = sm.subsystem.persist_line(now, sm.sm_id, line_addr, {addr: value})
        st.add_inflight(ack.ack_time)
        st.sends_pending += 1
        self._schedule_ack(sm, st, ack.accept_time, ack.ack_time, [])
        self.stats.add("sbrp.flag_persists")

    # ==================================================================
    # eviction
    # ==================================================================
    def evict_dirty_pm(
        self, sm: "SM", warp: "Warp", line: CacheLine, now: float
    ) -> Optional[float]:
        st = self.states[sm.sm_id]
        entry = st.pb.get(line.pb_index) if line.pb_index is not None else None
        if entry is None:
            # Defensive: a dirty PM line should always have a live entry.
            self.flush_line(sm, line, now)
            sm.l1.drop_line(line)
            return now + 1
        # The bypass is illegal when an ordering entry precedes the
        # victim's entry in the PB, or when the victim's warp has
        # unacknowledged ordered-before persists in flight (FSM hit):
        # acceptance order across memory partitions is not global, so an
        # early flush could become durable before its predecessors.
        if st.pb.order_entry_before(entry.seq) or (
            entry.warp_mask & st.fsm.bits and st.actr > 0
        ):
            st.edm.set(warp.slot)
            st.actr_zero_waiters.append(warp)
            st.force_until_seq = max(st.force_until_seq, entry.seq)
            self.stats.add("sbrp.evict_stalls")
            if sm.tracer is not None:
                sm.tracer.persist_delay(sm.sm_id, entry.line_addr, "actr")
            self._schedule_pump(sm)
            return None
        # No ordering entry precedes it: flush out of FIFO order.
        st.pb.tombstone(entry)
        ack = self.flush_line(sm, line, now)
        sm.l1.drop_line(line)
        st.add_inflight(ack.ack_time)
        st.sends_pending += 1
        self._schedule_ack(sm, st, ack.accept_time, ack.ack_time, entry.waiters)
        self.stats.add("sbrp.evict_bypass")
        self._wake_space_waiters(sm, st, now)
        return now + 1

    # ==================================================================
    # the drain pump
    # ==================================================================
    def _schedule_pump(self, sm: "SM") -> None:
        st = self.states[sm.sm_id]
        if st.pump_scheduled:
            return
        st.pump_scheduled = True
        cb = st.pump_cb
        if cb is None:
            # The SM holds this model, which holds the callback: keep
            # the SM weakly so the machine is no reference cycle.
            def cb(t, _sm_ref=weakref.ref(sm)):
                _sm = _sm_ref()
                model = _sm.model
                model._pump(_sm, t)
                if model._draining:
                    model._note_drained(_sm)

            st.pump_cb = cb
        sm.engine.schedule(sm.engine.now, cb)

    def _pump(self, sm: "SM", now: float) -> None:
        """Drain pass: scan the PB in order, flushing every persist whose
        warp has no pending ordering obligation and retiring ordering
        points whose predecessors have flushed.

        A persist is *delayed* (not flushed) when its Warp BM overlaps
        the FSM (an unacknowledged flushed line is ordered before it) or
        overlaps a delayed earlier entry.  Crucially, the scan continues
        past delayed entries: unrelated warps' persists keep flowing —
        the paper's stated purpose for the FSM ("avoid false ordering
        amongst persists from different warps").

        A scan leaves ``st.scan_memo``: the PB's edit count, the FSM the
        scan ended with, ``force_until_seq`` and either the youngest
        sequence number (the scan ran to the end) or ``None`` (it
        stopped at a full drain window).  While those are unchanged,
        ``space_waiters`` is empty and, for a stopped scan, the window
        is still full, a new scan would hold every entry it visits again
        and flush nothing, so it is skipped.  A scan that ran to the end
        also records its final hold mask and the live entries it left,
        all held: when only appends (or space waiters) came since, the
        next scan resumes after those with that hold (DESIGN §13).
        Traced passes always scan everything: the scan emits the delay
        events.
        """
        st = self.states[sm.sm_id]
        st.pump_scheduled = False
        if st.actr == 0:
            st.fsm.reset()
        traced = sm.tracer is not None
        pb = st.pb
        fsm_bits = st.fsm.bits
        # Inlined _policy_allows for the WINDOW policy (the default):
        # the method is pure, so short-circuiting here is value-identical.
        window = (
            self._window
            if self._drain_policy is DrainPolicy.WINDOW
            else None
        )
        memo = st.scan_memo
        if (
            memo is None
            or traced
            or memo[0] != pb.edits
            or memo[1] != fsm_bits
            or memo[2] != st.force_until_seq
        ):
            st.scan_memo = self._scan(sm, st, window, traced, now)
        elif memo[3] is None:
            if st.space_waiters or st.sends_pending < window:
                st.scan_memo = self._scan(sm, st, window, traced, now)
        elif st.space_waiters or memo[3] != pb.last_seq:
            st.scan_memo = self._scan(
                sm, st, window, traced, now, memo[5], memo[4]
            )
        if st.actr == 0:
            st.fsm.reset()
            self._resolve_actr_zero(sm, st, now)
        if traced:
            self._trace_pb(sm, st, now)

    def _scan(
        self,
        sm: "SM",
        st: SBRPState,
        window: Optional[int],
        traced: bool,
        now: float,
        start: int = 0,
        hold: int = 0,
    ) -> Optional[tuple]:
        """One in-order pass over the live PB entries after the first
        *start* (a held prefix whose masks OR to *hold*); returns the
        memo key that lets the next pass skip or resume the scan."""
        pb = st.pb
        fsm = st.fsm
        fsm_bits = fsm.bits  # only _order_point_at_head mutates the FSM
        persist = EntryKind.PERSIST
        remove = pb.remove
        # A snapshot: the pass removes entries as it goes, and nothing
        # in the loop body appends (wakes merely schedule events).
        for entry in pb.entries(start):
            warp_mask = entry.warp_mask
            if entry.kind is persist:
                if warp_mask & (fsm_bits | hold):
                    hold |= warp_mask
                    if traced:
                        sm.tracer.persist_delay(sm.sm_id, entry.line_addr, "fsm")
                    continue
                if not (
                    entry.seq <= st.force_until_seq
                    or st.space_waiters
                    or (
                        st.sends_pending < window
                        if window is not None
                        else self._policy_allows(st, entry)
                    )
                ):
                    if traced:
                        policy = self.config.sbrp.drain_policy
                        sm.tracer.persist_delay(
                            sm.sm_id, entry.line_addr, policy.value
                        )
                    break  # drain-rate budget exhausted for this pass
                remove(entry)
                self._flush_entry(sm, st, entry, now)
            else:
                if warp_mask & hold:
                    # An earlier persist of this warp is still delayed;
                    # the ordering point cannot retire yet.
                    hold |= warp_mask
                    continue
                remove(entry)
                self._order_point_at_head(sm, st, entry, now)
                fsm_bits = fsm.bits
            if st.space_waiters:
                self._wake_space_waiters(sm, st, now)
        else:
            # Every entry left is held: the next scan may resume after
            # them with this hold.
            return (
                pb.edits, fsm_bits, st.force_until_seq, pb.last_seq, hold, len(pb)
            )
        # Stopped by the drain policy: reusable only under the window's.
        if window is None:
            return None
        return (pb.edits, fsm_bits, st.force_until_seq, None)

    def _order_point_at_head(
        self, sm: "SM", st: SBRPState, entry: PBEntry, now: float
    ) -> None:
        mask = WarpMask(st.max_warps, entry.warp_mask)
        if entry.kind in (EntryKind.OFENCE, EntryKind.PACQ):
            # The issuing warp's later persists must wait for its earlier
            # (possibly in-flight) persists: oFence by intra-thread PMO,
            # pAcq because the matching release's persists may still be
            # unacknowledged ahead in the FIFO.
            st.fsm.or_with(mask)
            return
        if entry.kind is EntryKind.PREL and entry.scope is Scope.BLOCK:
            # A release does NOT order the releasing warp's own later
            # persists (only the acquirer's, via its pAcq entry), so no
            # FSM bit: this is what keeps per-round release chains from
            # serializing the whole drain.  A PM-resident flag is itself
            # a persist ordered after the warp's earlier persists: its
            # NVM write waits for those to be *accepted* (ACTR zero) —
            # FIFO retirement alone is not enough, because acceptance
            # order across WPQ partitions is not global.
            if entry.flag_addr is not None and is_pm_addr(entry.flag_addr):
                addr, value = entry.flag_addr, entry.flag_value
                st.actr_zero_actions.append(
                    ActrZeroAction(
                        warp=None,
                        effect=lambda t: self._persist_flag(sm, addr, value, t),
                    )
                )
            return
        st.fsm.or_with(mask)
        # Device-scope pRel or dFence: ODM -> EDM handoff; the warp
        # resumes (and the flag publishes) when the ACTR reaches zero.
        st.odm.clear_mask(mask)
        st.edm.or_with(mask)
        action = ActrZeroAction(warp=entry.waiting_warp, effect=None)
        if entry.kind is EntryKind.PREL and entry.flag_addr is not None:
            addr, value = entry.flag_addr, entry.flag_value
            action.effect = lambda t: self._publish(sm, addr, value, t)
        elif entry.kind is EntryKind.DFENCE:
            action.effect = lambda t: sm.l1.invalidate_clean_pm()
        st.actr_zero_actions.append(action)

    def _policy_allows(self, st: SBRPState, head: PBEntry) -> bool:
        if head.seq <= st.force_until_seq:
            return True
        if st.space_waiters:
            return True
        policy = self._drain_policy
        if policy is DrainPolicy.EAGER:
            return True
        if policy is DrainPolicy.WINDOW:
            return st.sends_pending < self._window
        return (
            st.pb.has_order_entries()
            or st.pb.live_count() > LAZY_PRESSURE * st.pb.capacity
        )

    def _flush_entry(
        self, sm: "SM", st: SBRPState, entry: PBEntry, now: float
    ) -> None:
        line = sm.l1.lookup(entry.line_addr, now)
        if line is None or not line.dirty:
            for waiter in entry.waiters:
                st.edm.clear(waiter.slot)
                sm.wake_warp(waiter, now + 1)
            return
        ack = self.flush_line(sm, line, now)
        # Standard write-back: the drained line stays resident and clean
        # (only its PB linkage is dropped), preserving the L1 retention
        # that block-scope PMO buys (Section 7.2's read-miss argument).
        line.pb_index = None
        st.add_inflight(ack.ack_time)
        st.sends_pending += 1
        self._schedule_ack(sm, st, ack.accept_time, ack.ack_time, entry.waiters)
        self.stats.add("sbrp.drained_persists")

    def _schedule_ack(
        self,
        sm: "SM",
        st: SBRPState,
        accept_time: float,
        ack_time: float,
        waiters: List["Warp"],
    ) -> None:
        generation = st.generation

        def on_accept(t: float) -> None:
            if generation != st.generation:
                return
            st.sends_pending -= 1
            self._schedule_pump(sm)

        def on_ack(t: float) -> None:
            if generation != st.generation:
                return
            sm.engine.note_progress()
            st.retire_ack(ack_time)
            if sm.tracer is not None:
                sm.tracer.counter(f"sm{sm.sm_id}", "actr", t, float(st.actr))
            for waiter in waiters:
                st.edm.clear(waiter.slot)
                sm.wake_warp(waiter, t)
            if st.actr == 0:
                st.fsm.reset()
                self._resolve_actr_zero(sm, st, t)
            self._schedule_pump(sm)
            if self._draining:
                self._note_drained(sm)

        sm.engine.schedule(accept_time, on_accept)
        # A lost ack (fault injection) never arrives: the ACTR stays
        # elevated and the machine wedges diagnosably (deadlock / drain
        # stall / watchdog) instead of scheduling an event at infinity.
        if math.isfinite(ack_time):
            sm.engine.schedule(ack_time, on_ack)

    def _resolve_actr_zero(self, sm: "SM", st: SBRPState, now: float) -> None:
        actions, st.actr_zero_actions = st.actr_zero_actions, []
        for action in actions:
            if action.effect is not None:
                action.effect(now)
            if action.warp is not None:
                st.edm.clear(action.warp.slot)
                sm.complete_blocked(action.warp, now + 1)
        waiters, st.actr_zero_waiters = st.actr_zero_waiters, []
        for waiter in waiters:
            st.edm.clear(waiter.slot)
            sm.wake_warp(waiter, now)

    def _wake_space_waiters(self, sm: "SM", st: SBRPState, now: float) -> None:
        if st.pb.is_full():
            return
        waiters, st.space_waiters = st.space_waiters, []
        for waiter in waiters:
            st.edm.clear(waiter.slot)
            sm.wake_warp(waiter, now + 1)

    # ==================================================================
    # kernel-boundary drain (event-driven: SMs drain concurrently)
    # ==================================================================
    def begin_drain(self, sm: "SM", now: float) -> None:
        st = self.states[sm.sm_id]
        for entry in st.pb.entries():
            if entry.waiting_warp is not None:
                raise PersistencyError(
                    "kernel-end drain found a waiting ordering entry; a "
                    "warp was still blocked at kernel end"
                )
        st.force_until_seq = float("inf")
        if self.drained(sm, now):
            self._draining.discard(sm.sm_id)
        else:
            self._draining.add(sm.sm_id)
        self._schedule_pump(sm)

    def drained(self, sm: "SM", now: float) -> bool:
        st = self.states[sm.sm_id]
        return st.pb.live_count() == 0 and st.actr == 0

    def _note_drained(self, sm: "SM") -> None:
        """After a pump or an ack during a drain: only those events
        empty the PB or the ACTR, so the one that drains the last SM
        raises the engine's stop flag.  A drained SM stays drained (it
        has no warps and nothing left to flush)."""
        if sm.sm_id in self._draining and self.drained(sm, sm.engine.now):
            self._draining.discard(sm.sm_id)
            if not self._draining:
                sm.engine._stop = True

    def finish_drain(self, sm: "SM") -> None:
        """Reset per-SM state for the next kernel launch."""
        st = self.states[sm.sm_id]
        st.hard_reset_acks()
        st.odm.reset()
        st.edm.reset()
        st.force_until_seq = 0
        st.last_order_seq = [0] * st.max_warps
