"""The Streaming Multiprocessor: warp scheduling and memory access.

An SM issues at most one warp-instruction per cycle (round-robin over
ready warps), owns a private non-coherent L1, and consults the system's
persistency model on every PM store, fence, scoped acquire/release, and
dirty-PM eviction — the integration points of the paper's Section 6
hardware.

The per-instruction path is written for host speed without changing
the event graph: lane loops iterate the plain ``list``s each op carries
(see :mod:`repro.gpu.ops`) rather than numpy scalars, op dispatch is a
type-keyed dict, the scheduler's slot-ordered warp list is cached
between occupancy changes, the pick/execute/re-kick chain runs in one
fused ``_on_issue`` frame, and hot stats names are precomputed.
"""

from __future__ import annotations

import weakref
from functools import reduce
from bisect import bisect_left
from heapq import heappop, heappush
from itertools import compress, repeat
from operator import itemgetter, or_
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from repro.common.errors import SimulationError
from repro.memory.address_space import PM_BASE
from repro.memory.backing import WORD_SIZE, check_word_aligned
from repro.memory.cache import L1Cache
from repro.gpu.ops import (
    AtomicAdd,
    BlockBarrier,
    Compute,
    DFence,
    Ld,
    OFence,
    Op,
    PAcq,
    PRel,
    St,
    ThreadFence,
)
from repro.gpu.warp import Warp, WarpState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.gpu.device import GPU
    from repro.gpu.engine import Engine

#: Stall-attribution category of each warp op (trace residency buckets).
_OP_CATEGORY = {
    Compute: "compute",
    Ld: "ld",
    St: "st",
    AtomicAdd: "atomic",
    OFence: "ofence",
    DFence: "dfence",
    PAcq: "pacq",
    PRel: "prel",
    ThreadFence: "threadfence",
    BlockBarrier: "barrier",
}

_READ_HIT = ("l1.read_hit_vol", "l1.read_hit_pm")
_READ_MISS = ("l1.read_miss_vol", "l1.read_miss_pm")
_READY = WarpState.READY
_INF = float("inf")

#: The OR of all lane addresses has a low bit set iff *some* address is
#: word-misaligned (WORD_SIZE is a power of two), so one C-level fold
#: (``reduce(or_, addrs)``) replaces a per-lane `% WORD_SIZE` scan in
#: the aligned-load fast path.
_ALIGN_MASK = WORD_SIZE - 1


class SM:
    """One streaming multiprocessor."""

    def __init__(self, sm_id: int, gpu: "GPU") -> None:
        self.sm_id = sm_id
        #: Weak, so a dropped machine is no reference cycle (the GPU
        #: owns its SMs) and is freed by reference counting.
        self.gpu = weakref.proxy(gpu)
        self.config = gpu.config
        self.engine = gpu.engine
        self.subsystem = gpu.subsystem
        self.backing = gpu.backing
        self.model = gpu.model
        self.stats = gpu.stats
        self.tracer = gpu.tracer
        cfg = gpu.config.gpu
        self.l1 = L1Cache(
            f"sm{sm_id}.l1", cfg.l1_size, cfg.line_size, cfg.l1_assoc, gpu.stats
        )
        self.line_size = cfg.line_size
        #: Per-SM flush counter name, precomputed (flush_line is hot).
        self.stat_pm_flushes = f"sm{sm_id}.pm_flushes"
        self.warps: Dict[int, Warp] = {}
        self._rr = 0
        self._next_issue_free = 0.0
        self._issue_pending = False
        self._barriers: Dict[int, List[Warp]] = {}
        self._hit_latency = cfg.l1_hit_latency
        self._l2_latency = cfg.l2_latency
        self._issue_quantum = 1.0 / cfg.issue_width
        #: Failed-spin completion delta: the flag load's L1 hit latency,
        #: the spin backoff and ``_complete``'s 1-cycle floor, whichever
        #: is largest.
        self._spin_delta = max(cfg.l1_hit_latency, cfg.spin_backoff_cycles, 1)
        self._stats_add = self.stats.add
        # Counter dict bound directly: the registry's add() is a pure
        # ``defaultdict[name] += amount``, so hot paths skip the call.
        self._counters = self.stats._counters
        self._slots_cache: Optional[List[int]] = None
        #: Warp objects in slot order, rebuilt with the slot cache: the
        #: RR scan and the kick min-scan index it without dict probes.
        self._warps_cache: List[Warp] = []
        #: Pure spins since this SM last tried a spin skip.
        self._spin_count = 0
        self.model.init_sm(self)

    # ------------------------------------------------------------------
    # warp lifecycle
    # ------------------------------------------------------------------
    def warp_track(self, warp: Warp) -> str:
        """Trace-track name of a warp slot (``sm0.w03``)."""
        return f"sm{self.sm_id}.w{warp.slot:02d}"

    def add_warp(self, warp: Warp, now: float) -> None:
        if warp.slot in self.warps:
            raise SimulationError(f"warp slot {warp.slot} already occupied")
        self._slots_cache = None
        warp.ready_time = now
        self.warps[warp.slot] = warp
        if self.tracer is not None:
            self.tracer.warp_begin(self.warp_track(warp), now)
        self.kick(now)

    def remove_block(self, block_key: int) -> None:
        """Free the warp slots of a finished block."""
        self._slots_cache = None
        for slot in [s for s, w in self.warps.items() if w.block_key == block_key]:
            del self.warps[slot]

    # ------------------------------------------------------------------
    # issue machinery
    # ------------------------------------------------------------------
    def kick(self, now: float) -> None:
        """Ensure an issue event will fire when a warp can issue.

        The event fires at ``max(now, _next_issue_free, earliest READY
        ready_time)``.  The scan starts at the round-robin cursor and
        stops at the first READY warp that could issue by
        ``max(now, _next_issue_free)``: that warp already fixes the
        time, so the rest of the warps cannot change it."""
        if self._issue_pending:
            return
        if self._slots_cache is None:
            self._warp_list()
        wl = self._warps_cache
        n = len(wl)
        if not n:
            return
        ready = _READY
        floor = now if now > self._next_issue_free else self._next_issue_free
        best = None
        rr = self._rr % n
        # Indices rr - n .. rr - 1 visit slots rr .. n - 1, then 0 .. rr - 1.
        for i in range(rr - n, rr):
            w = wl[i]
            if w.state is ready:
                rt = w.ready_time
                if rt <= floor:
                    best = floor
                    break
                if best is None or rt < best:
                    best = rt
        if best is None:
            return
        when = best if best > floor else floor
        self._issue_pending = True
        # Inlined Engine.schedule.
        engine = self.engine
        engine._seq += 1
        if when <= engine.now:
            engine._fifo.append((engine.now, engine._seq, self._on_issue))
        else:
            heappush(engine._queue, (when, engine._seq, self._on_issue))

    def _warp_list(self) -> List[Warp]:
        if self._slots_cache is None:
            warps = self.warps
            self._slots_cache = slots = sorted(warps)
            self._warps_cache = [warps[slot] for slot in slots]
        return self._warps_cache

    def _on_issue(self, now: float) -> None:
        """One issue slot: pick a warp round-robin, resume or retry its
        op, dispatch it, and re-kick — fused into one frame."""
        self._issue_pending = False
        if now < self._next_issue_free:
            self.kick(now)
            return
        if self._slots_cache is None:
            self._warp_list()
        wl = self._warps_cache
        ready = _READY
        warp = None
        n = len(wl)
        if n:
            rr = self._rr
            for i in range(n):
                w = wl[(rr + i) % n]
                if w.state is ready and w.ready_time <= now:
                    self._rr = (rr + i + 1) % n
                    warp = w
                    break
        if warp is None:
            self.kick(now)
            return
        self._next_issue_free = now + self._issue_quantum
        op = warp.retry_op
        if op is None:
            try:
                op = warp.gen.send(warp.send_value)
            except StopIteration:
                self._warp_done(warp, now)
                self.kick(now)
                return
            warp.send_value = None
        self._counters["sm.instructions"] += 1.0
        if self.tracer is not None:
            self.tracer.warp_phase(
                self.warp_track(warp), _OP_CATEGORY.get(type(op), "sched"), now
            )
        cls = op.__class__
        spun = False
        if cls is Compute:
            # The most common op, fully inlined: identical to
            # ``_complete(warp, now, now + op.cycles)``.
            warp.retry_op = None
            warp.state = ready
            at = now + op.cycles
            n1 = now + 1
            warp.ready_time = at if at > n1 else n1
            if self.tracer is not None:
                self.tracer.warp_phase(
                    self.warp_track(warp), "sched", warp.ready_time
                )
        elif cls is PAcq:
            spun = self._process_pacq(warp, op, now)
        else:
            handler = _DISPATCH.get(cls)
            if handler is None:
                raise SimulationError(f"unknown op {op!r}")
            handler(self, warp, op, now)
        # Trailing kick(), inlined over the cached warp list: runs once
        # per issued instruction.  Same early-exit scan as kick().
        if self._issue_pending:
            return
        floor = self._next_issue_free  # > now: set above
        best = None
        rr = self._rr
        for i in range(rr - n, rr):
            w = wl[i]
            if w.state is ready:
                rt = w.ready_time
                if rt <= floor:
                    best = floor
                    break
                if best is None or rt < best:
                    best = rt
        if best is None:
            return
        when = best if best > floor else floor
        self._issue_pending = True
        engine = self.engine
        engine._seq += 1
        if when <= engine.now:
            engine._fifo.append((engine.now, engine._seq, self._on_issue))
        else:
            heappush(engine._queue, (when, engine._seq, self._on_issue))
        if spun:
            # Every n-th pure spin of an SM with n warps tries a skip.
            spins = self._spin_count + 1
            if spins < n:
                self._spin_count = spins
            else:
                self._spin_count = 0
                if self.tracer is None:
                    skip_spins(engine)

    def _spin_state(self, t: float) -> tuple:
        """Classify this SM's issue event at *t* for :func:`skip_spins`.

        Returns ``(bound, ready)``.  *bound* is the earliest time a warp
        of this SM could issue anything but a pure spin (a spin that
        reads 0 from its flag, under a spinning acquire): *t* if a READY
        warp that is not spinning could issue by then or the SM holds
        no spinner, else the earliest ``ready_time`` of such a warp
        (infinity if there is none).  *ready* is ``None`` when *bound*
        is *t*; otherwise the slot-order positions of the READY warps
        and their ready times (only READY warps can be picked)."""
        if t < self._next_issue_free:
            return t, None  # the event only re-kicks
        if self._slots_cache is None:
            self._warp_list()
        wl = self._warps_cache
        visible = self.backing.visible
        positions = [j for j, w in enumerate(wl) if w.state is _READY]
        bound = _INF
        spinning = False
        for j in positions:
            w = wl[j]
            op = w.retry_op
            if (
                op is not None
                and op.__class__ is PAcq
                and op.spin
                and not (op.addr in visible and visible[op.addr])
            ):
                spinning = True
            else:
                rt = w.ready_time
                if rt <= t:
                    return t, None
                if rt < bound:
                    bound = rt
        if not spinning:
            return t, None
        return bound, (positions, [wl[j].ready_time for j in positions])

    def _replay_spins(
        self, t: float, limit: float, positions: List[int], rts: List[float]
    ) -> tuple:
        """Replay this SM's issue events from *t* up to *limit* with
        ``_on_issue``'s round-robin pick, trailing kick and float
        arithmetic, over its READY warps only (both scans pass over the
        others): *rts* holds their ready times and is updated in place.
        Each replayed issue is a pure spin.  Returns the replayed times,
        the next issue time, and the cursor and ``_next_issue_free``
        after them.  The SM is not changed."""
        m = len(rts)
        n = len(self._warps_cache)
        quantum = self._issue_quantum
        delta = self._spin_delta
        # The first READY warp at or after the cursor, wrapping.
        c = bisect_left(positions, self._rr % n)
        if c == m:
            c = 0
        nif = self._next_issue_free
        times: List[float] = []
        while t < limit:
            # The pick: the first warp from the cursor that is ready by t.
            k = c
            while rts[k] > t:
                k = k + 1 if k + 1 < m else 0
                if k == c:
                    break
            if rts[k] > t:
                break  # nothing to pick: the event only re-kicks
            times.append(t)
            rts[k] = t + delta
            c = k + 1 if k + 1 < m else 0
            nif = t + quantum
            # The trailing kick: max(_next_issue_free, earliest ready
            # time); the warp after the pick is usually ready by then.
            t = nif
            if rts[c] > nif:
                best = min(rts)
                if best > nif:
                    t = best
        # The cursor follows the last pick, which sits just before c.
        rr = (positions[c - 1] + 1) % n if times else self._rr
        return times, t, rr, nif

    def wake_warp(self, warp: Warp, at: float, send: object = None) -> None:
        """Unblock *warp* at time *at*, re-processing its pending op
        (persistency models call this for stall-and-retry wakes)."""
        warp.state = WarpState.READY
        warp.ready_time = at
        if send is not None:
            warp.send_value = send
        if self.tracer is not None:
            # Close the blocked op's interval: cycles up to the wake are
            # attributed to the stalling op, after it to the scheduler.
            self.tracer.warp_phase(self.warp_track(warp), "sched", at)
        self.kick(self.engine.now)

    def complete_blocked(self, warp: Warp, at: float, send: object = None) -> None:
        """Unblock *warp* with its pending op *finished* — the generator
        resumes instead of retrying (device-scope pRel / dFence)."""
        warp.retry_op = None
        self.wake_warp(warp, at, send)

    # ------------------------------------------------------------------
    # execution helpers
    # ------------------------------------------------------------------
    def _warp_done(self, warp: Warp, now: float) -> None:
        warp.state = WarpState.DONE
        if self.tracer is not None:
            self.tracer.warp_end(self.warp_track(warp), now)
        self.gpu.on_warp_done(self, warp, now)

    def _complete(
        self, warp: Warp, now: float, at: float, send: object = None
    ) -> None:
        # ready_time = max(at, now + 1), unrolled.
        warp.retry_op = None
        warp.state = WarpState.READY
        n1 = now + 1
        warp.ready_time = at if at > n1 else n1
        if send is not None:
            warp.send_value = send
        if self.tracer is not None:
            self.tracer.warp_phase(self.warp_track(warp), "sched", warp.ready_time)

    def _block(self, warp: Warp, op: Op) -> None:
        """Stall the warp; the persistency model will wake it and the op
        will be re-processed from where it left off."""
        warp.state = WarpState.BLOCKED
        warp.retry_op = op

    # ------------------------------------------------------------------
    # op dispatch
    # ------------------------------------------------------------------
    def _model_call(self, warp: Warp, op: Op, at: Optional[float], now: float) -> None:
        # A hook returns its completion time, or None to block the warp.
        if at is None:
            self._block(warp, op)
        else:
            self._complete(warp, now, at)

    def _proc_ofence(self, warp: Warp, op: OFence, now: float) -> None:
        self._model_call(warp, op, self.model.ofence(self, warp, now), now)

    def _proc_dfence(self, warp: Warp, op: DFence, now: float) -> None:
        self._model_call(warp, op, self.model.dfence(self, warp, now), now)

    def _proc_prel(self, warp: Warp, op: PRel, now: float) -> None:
        at = self.model.prel(self, warp, op.addr, op.value, op.scope, now)
        self._model_call(warp, op, at, now)

    def _proc_threadfence(self, warp: Warp, op: ThreadFence, now: float) -> None:
        at = self.model.threadfence(self, warp, op.scope, now)
        self._model_call(warp, op, at, now)

    def _proc_barrier(self, warp: Warp, op: BlockBarrier, now: float) -> None:
        self._process_barrier(warp, now)

    # ------------------------------------------------------------------
    # acquires
    # ------------------------------------------------------------------
    def _process_pacq(self, warp: Warp, op: PAcq, now: float) -> bool:
        """One poll of a flag; True for a *pure spin* (a spinning
        acquire that read 0), which the SM retries with no model call."""
        addr = op.addr
        if addr & _ALIGN_MASK:
            self.backing.read(addr)  # raises: misaligned flag address
        value = self.backing.visible.get(addr, 0)
        if value == 0:
            # Failed poll.  Every model prices this at the flag load's
            # L1 hit latency with no side effects (epoch/GPM and SBRP
            # both return early before touching model state), so the
            # model call is skipped outright and the backoff and
            # completion arithmetic collapses to one add.
            self._counters["sm.pacq_spins"] += 1.0
            warp.state = _READY
            warp.ready_time = now + self._spin_delta
            if self.tracer is not None:
                self.tracer.warp_phase(
                    self.warp_track(warp), "sched", warp.ready_time
                )
            if op.spin:
                warp.retry_op = op
                return True
            warp.retry_op = None
            warp.send_value = 0
            return
        at = self.model.pacq(self, warp, addr, op.scope, value, now)
        if at is None:
            self._block(warp, op)
            return
        at_least = op.at_least
        if at_least is not None and value < at_least:
            # A stale release: the model call stands, the exit test
            # fails, and the op retries when the acquire completes.
            warp.retry_op = op
            warp.state = _READY
            n1 = now + 1
            warp.ready_time = at if at > n1 else n1
            if self.tracer is not None:
                self.tracer.warp_phase(
                    self.warp_track(warp), "sched", warp.ready_time
                )
            return
        self._complete(warp, now, at, value)
        return

    # ------------------------------------------------------------------
    # loads
    # ------------------------------------------------------------------
    def _process_load(self, warp: Warp, op: Ld, now: float) -> None:
        addrs = op.addrs
        line_size = self.line_size
        mask = op.mask
        if mask is None or False not in mask:
            # Every lane active (ops built with the default mask carry
            # None): skip the membership scans.
            active_addrs = addrs
        elif True in mask:
            active_addrs = [a for a, m in zip(addrs, mask) if m]
        else:
            self._complete(
                warp, now, now + 1, np.zeros(len(addrs), dtype=np.int64)
            )
            return
        # dict.fromkeys preserves first-encounter order: lines are
        # accessed in lane order, first touch first.  Single-line loads
        # (coalesced: min and max fall in the same line) skip the
        # per-lane line-address comprehension.
        mn = min(active_addrs)
        mx = max(active_addrs)
        first_line = mn - mn % line_size
        if mx - mx % line_size == first_line:
            line_addrs = (first_line,)
        else:
            line_addrs = dict.fromkeys(
                [a - a % line_size for a in active_addrs]
            )
        latest = now
        l1 = self.l1
        line_map = l1._map
        counters = self._counters
        model = self.model
        for line_addr in line_addrs:
            # Inlined _access_line_for_read: hit probe, miss fill, or
            # block on a dirty-PM eviction (op retries from scratch).
            line = line_map.get(line_addr)
            if line is not None and line.valid:
                line.last_use = now
                counters[_READ_HIT[line_addr >= PM_BASE]] += 1.0
                done_at = now + self._hit_latency
            else:
                is_pm = line_addr >= PM_BASE
                counters[_READ_MISS[is_pm]] += 1.0
                victim = l1.victim_for(line_addr)
                if victim.valid and victim.dirty and victim.is_pm:
                    if model.evict_dirty_pm(self, warp, victim, now) is None:
                        self._block(warp, op)
                        return
                done_at = self.subsystem.fetch_line(now, line_addr, is_pm)
                words = self._snapshot_line(line_addr) if is_pm else None
                l1.fill(victim, line_addr, is_pm, words, now)
            if done_at > latest:
                latest = done_at
        vget = self.backing.visible.get
        if active_addrs is addrs and not reduce(or_, addrs) & _ALIGN_MASK:
            # Full mask, all aligned: comprehension-only value phase.
            # (A misaligned lane must raise, so that case takes the
            # general per-lane path below.)
            if len(line_addrs) == 1:
                la = first_line
                if la < PM_BASE:
                    values = list(map(vget, addrs, repeat(0)))
                    self._complete(
                        warp, now, latest, np.array(values, dtype=np.int64)
                    )
                    return
                line = line_map.get(la)
                if line is not None and line.valid:
                    words = line.words
                    if len(words) == line_size // WORD_SIZE:
                        # Fully populated snapshot: plain C-speed gets.
                        values = list(map(words.__getitem__, addrs))
                    elif not words:
                        # Fully absent (fresh PM region): all fallback.
                        values = list(map(vget, addrs, repeat(0)))
                    else:
                        values = [
                            words[a] if a in words else vget(a, 0)
                            for a in addrs
                        ]
                    self._complete(
                        warp, now, latest, np.array(values, dtype=np.int64)
                    )
                    return
            elif max(line_addrs) < PM_BASE:
                values = list(map(vget, addrs, repeat(0)))
                self._complete(warp, now, latest, np.array(values, dtype=np.int64))
                return
        values = [0] * len(addrs)
        lanes = range(len(addrs))
        if mask is not None:
            lanes = compress(lanes, mask)  # active lanes, C-level
        for i in lanes:
            addr = addrs[i]
            if addr >= PM_BASE:
                line_addr = addr - addr % line_size
                line = line_map.get(line_addr)
                if line is not None and line.valid:
                    words = line.words
                    if addr in words:
                        values[i] = words[addr]
                        continue
            if addr % WORD_SIZE:
                check_word_aligned(addr)
            values[i] = vget(addr, 0)
        self._complete(warp, now, latest, np.array(values, dtype=np.int64))

    def _snapshot_line(self, line_addr: int) -> Dict[int, int]:
        """Copy the visible image's words for one PM line (a fetched line
        carries data that may later go stale if another SM updates it)."""
        rng = range(line_addr, line_addr + self.line_size, WORD_SIZE)
        # map() runs the .get probes at C speed; absent words come back
        # None and are dropped.
        return {
            addr: value
            for addr, value in zip(rng, map(self.backing.visible.get, rng))
            if value is not None
        }

    # ------------------------------------------------------------------
    # stores
    # ------------------------------------------------------------------
    def _process_store(self, warp: Warp, op: St, now: float) -> None:
        if op.pm_lines is None:
            self._split_store(op)
        vol_words = op.vol_words
        if vol_words:
            visible = self.backing.visible
            for addr in vol_words:
                if addr % WORD_SIZE:
                    check_word_aligned(addr)
            visible.update(vol_words)
            self._stats_add("store.vol_words", len(vol_words))
            write_volatile = self.subsystem.write_volatile
            line_size = self.line_size
            for line_addr in op.vol_lines:
                write_volatile(now, line_addr, line_size)
            op.vol_words = {}
        latest = now
        pm_lines: Dict[int, Dict[int, int]] = op.pm_lines
        while pm_lines:
            line_addr = next(iter(pm_lines))
            words = pm_lines[line_addr]
            at = self.model.pm_store(self, warp, line_addr, words, now)
            if at is None:
                self._block(warp, op)
                return
            del pm_lines[line_addr]
            self._stats_add("store.pm_lines")
            if at > latest:
                latest = at
        self._complete(warp, now, latest)

    def _split_store(self, op: St) -> None:
        line_size = self.line_size
        addrs = op.addrs
        values = op.values
        mask = op.mask
        full = mask is None or False not in mask
        if full:
            # All lanes active: uniform-space fast paths.  Dicts and
            # sets are built in lane order, as the per-lane loop
            # below builds them.
            mn = min(addrs)
            mx = max(addrs)
            if mn >= PM_BASE:
                first_line = mn - mn % line_size
                if mx - mx % line_size == first_line:
                    # Coalesced single-line store: one C-speed zip.
                    op.pm_lines = {first_line: dict(zip(addrs, values))}
                    op.vol_words = {}
                    op.vol_lines = set()
                    return
                pm_lines: Dict[int, Dict[int, int]] = {}
                for addr, value in zip(addrs, values):
                    line_addr = addr - addr % line_size
                    line = pm_lines.get(line_addr)
                    if line is None:
                        pm_lines[line_addr] = {addr: value}
                    else:
                        line[addr] = value
                op.pm_lines = pm_lines
                op.vol_words = {}
                op.vol_lines = set()
                return
            if mx < PM_BASE:
                op.pm_lines = {}
                op.vol_words = dict(zip(addrs, values))
                op.vol_lines = {a - a % line_size for a in addrs}
                return
        pm_lines = {}
        vol_words: Dict[int, int] = {}
        vol_lines = set()
        lanes = zip(addrs, values)
        if mask is not None:
            lanes = compress(lanes, mask)  # active lanes, C-level
        for addr, value in lanes:
            if addr >= PM_BASE:
                line_addr = addr - addr % line_size
                line = pm_lines.get(line_addr)
                if line is None:
                    pm_lines[line_addr] = {addr: value}
                else:
                    line[addr] = value
            else:
                vol_words[addr] = value
                vol_lines.add(addr - addr % line_size)
        op.pm_lines = pm_lines
        op.vol_words = vol_words
        op.vol_lines = vol_lines

    # ------------------------------------------------------------------
    # atomics
    # ------------------------------------------------------------------
    def _process_atomic(self, warp: Warp, op: AtomicAdd, now: float) -> None:
        addrs = op.addrs
        values = op.values
        olds = [0] * len(addrs)
        unique = set()
        visible = self.backing.visible
        lanes = range(len(addrs))
        if op.mask is not None:
            lanes = compress(lanes, op.mask)  # active lanes, C-level
        for i in lanes:
            addr = addrs[i]
            if addr >= PM_BASE:
                raise SimulationError(
                    "atomics to PM are not supported; keep synchronization "
                    "variables in volatile memory"
                )
            if addr % WORD_SIZE:
                check_word_aligned(addr)
            old = visible.get(addr, 0)
            visible[addr] = old + values[i]
            olds[i] = old
            unique.add(addr)
        done = now + self._l2_latency + 2 * max(1, len(unique))
        self._stats_add("sm.atomics", len(unique))
        self._complete(warp, now, done, np.array(olds, dtype=np.int64))

    # ------------------------------------------------------------------
    # block barrier
    # ------------------------------------------------------------------
    def _process_barrier(self, warp: Warp, now: float) -> None:
        waiting = self._barriers.setdefault(warp.block_key, [])
        waiting.append(warp)
        expected = sum(
            1
            for w in self.warps.values()
            if w.block_key == warp.block_key and w.state is not WarpState.DONE
        )
        if len(waiting) < expected:
            warp.state = WarpState.AT_BARRIER
            return
        del self._barriers[warp.block_key]
        for w in waiting:
            w.state = WarpState.READY
            w.ready_time = now + 1
            w.retry_op = None
            if self.tracer is not None:
                self.tracer.warp_phase(self.warp_track(w), "sched", now + 1)
        self.kick(now)


_ON_ISSUE = SM._on_issue


def skip_spins(engine: "Engine") -> None:
    """Run, in one step, the issue events the engine would pop before
    anything but a pure spin can happen (DESIGN §13, "Spin skip").

    An SM's pending issue event is a *candidate* if the SM holds a READY
    warp in a pure spin; every other pending event is a boundary.  The
    window ends at the *limit*: the earliest boundary, or the earliest
    time a READY warp on a candidate SM that is not spinning could
    issue.  Each candidate SM's issues below it are replayed; then each
    SM's next issue is re-queued in the order the queue would have held
    it, and the engine advances its clock and counters as if it had
    popped every replayed event.  Nothing happens when the window is
    unbounded (only spins are left: the watchdog's case) or the engine
    declines (see :meth:`Engine.skip`).
    """
    heap = engine.spin_window()
    if heap is None:
        return
    size = len(heap)
    # Visit the queue in pop order, through issue events only: the first
    # other event ends the window, and so does an SM issuing without a
    # pure spin.  Each candidate's other READY warps may lower the limit.
    limit = _INF
    candidates = []
    frontier = [(heap[0][0], heap[0][1], 0)]
    while frontier:
        t, seq, i = heappop(frontier)
        if t >= limit:
            break
        fn = heap[i][2]
        if getattr(fn, "__func__", None) is not _ON_ISSUE:
            limit = t
            break
        sm = fn.__self__
        bound, ready = sm._spin_state(t)
        if bound < limit:
            limit = bound
        if ready is not None:
            candidates.append((t, seq, fn, i, sm, ready))
        i = 2 * i + 1
        if i < size:
            entry = heap[i]
            heappush(frontier, (entry[0], entry[1], i))
            i += 1
            if i < size:
                entry = heap[i]
                heappush(frontier, (entry[0], entry[1], i))
    if limit == _INF:
        return
    runs = []
    events = 0
    end = 0.0
    for t, seq, fn, i, sm, (positions, rts) in candidates:
        if t >= limit:
            break
        times, nxt, rr, nif = sm._replay_spins(t, limit, positions, rts)
        if times:
            events += len(times)
            if times[-1] > end:
                end = times[-1]
            # The queue order of the SMs' next issues: each is scheduled
            # by its SM's last replayed event, so compare the replayed
            # times newest first (on a tie the shorter run's event was
            # popped first), then the seq of the event the run began at.
            runs.append((times[::-1], seq, (i, nxt, fn), (sm, rr, nif, positions, rts)))
    if not runs:
        return
    runs.sort(key=itemgetter(0, 1))
    if not engine.skip([run[2] for run in runs], events, limit, end):
        return
    for _, _, _, (sm, rr, nif, positions, rts) in runs:
        sm._rr = rr
        sm._next_issue_free = nif
        wl = sm._warps_cache
        for j, rt in zip(positions, rts):
            wl[j].ready_time = rt
    counters = sm._counters
    counters["sm.instructions"] += float(events)
    counters["sm.pacq_spins"] += float(events)


_DISPATCH = {
    Ld: SM._process_load,
    St: SM._process_store,
    AtomicAdd: SM._process_atomic,
    OFence: SM._proc_ofence,
    DFence: SM._proc_dfence,
    PRel: SM._proc_prel,
    ThreadFence: SM._proc_threadfence,
    BlockBarrier: SM._proc_barrier,
}
