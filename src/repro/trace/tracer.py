"""The low-overhead structured tracer.

One :class:`Tracer` instance is shared by every component of a
:class:`~repro.system.GPUSystem`.  It is a pure *observer*: no method
touches the event queue, the stats registry, or any timing state, so a
traced run is cycle-identical to an untraced one (a test pins this).

An untraced system has no tracer: its components hold ``tracer =
None`` and every emission is guarded by ``if tracer is not None:``, so
disabled tracing costs one comparison per call site.

Three families of data are collected:

* **timeline events** — spans / instants / counters in bounded ring
  buffers (see :mod:`repro.trace.events` for tuple shapes);
* **per-warp residency accounting** — every cycle of a warp's life is
  attributed to exactly one category (compute/ld/st/fences/barrier/
  sched), accumulated exactly (never ring-dropped) so the stall report
  reconciles with end-to-end cycle counts;
* **persist lifecycle** — one record per buffered PM line from first
  store to durability ack, with per-phase latency histograms and drain
  delay reasons.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.metrics.registry import MetricHistogram
from repro.trace.events import LIFECYCLE_PHASES, PersistTrace


#: Ring-buffer capacity of each timeline family (spans / instants /
#: counters / lifecycle records).  Aggregates are never bounded.
CAPACITY = 1_000_000


class Tracer:
    """Structured event collector for one simulated system."""

    __slots__ = (
        "spans",
        "instants",
        "counters",
        "span_totals",
        "_open_warp",
        "_warp_begin",
        "stall_totals",
        "warp_active",
        "warp_span",
        "warp_launches",
        "_persist_ids",
        "_open_persists",
        "persists",
        "persist_count",
        "coalesced_stores",
        "delay_counts",
        "phase_hist",
    )

    def __init__(self) -> None:
        # timeline ring buffers
        self.spans: Deque[Tuple] = deque(maxlen=CAPACITY)
        self.instants: Deque[Tuple] = deque(maxlen=CAPACITY)
        self.counters: Deque[Tuple] = deque(maxlen=CAPACITY)
        #: Exact (count, busy-cycles) per (track, name) span aggregate —
        #: device utilisation survives ring-buffer drops.
        self.span_totals: Dict[Tuple[str, str], List[float]] = {}
        # warp residency accounting
        self._open_warp: Dict[str, Tuple[str, float]] = {}
        self._warp_begin: Dict[str, float] = {}
        self.stall_totals: Dict[str, Dict[str, float]] = {}
        self.warp_active: Dict[str, float] = {}
        self.warp_span: Dict[str, List[float]] = {}
        self.warp_launches: Dict[str, int] = {}
        # persist lifecycle
        self._persist_ids = itertools.count(1)
        self._open_persists: Dict[Tuple[int, int], PersistTrace] = {}
        self.persists: Deque[PersistTrace] = deque(maxlen=CAPACITY)
        self.persist_count = 0
        self.coalesced_stores = 0
        self.delay_counts: Dict[str, int] = {}
        self.phase_hist: Dict[str, MetricHistogram] = {
            phase: MetricHistogram() for phase in LIFECYCLE_PHASES
        }

    # ------------------------------------------------------------------
    # timeline events
    # ------------------------------------------------------------------
    def span(
        self,
        track: str,
        name: str,
        start: float,
        end: float,
        args: Optional[dict] = None,
    ) -> None:
        self.spans.append((track, name, start, end, args))
        total = self.span_totals.get((track, name))
        if total is None:
            self.span_totals[(track, name)] = [1, end - start]
        else:
            total[0] += 1
            total[1] += end - start

    def instant(
        self, track: str, name: str, ts: float, args: Optional[dict] = None
    ) -> None:
        self.instants.append((track, name, ts, args))

    def counter(self, track: str, name: str, ts: float, value: float) -> None:
        self.counters.append((track, name, ts, value))

    # ------------------------------------------------------------------
    # per-warp residency accounting
    # ------------------------------------------------------------------
    def warp_begin(self, track: str, ts: float) -> None:
        """A warp was dispatched onto *track* (an SM warp slot)."""
        self._warp_begin[track] = ts
        self._open_warp[track] = ("sched", ts)
        self.warp_launches[track] = self.warp_launches.get(track, 0) + 1
        span = self.warp_span.get(track)
        if span is None:
            self.warp_span[track] = [ts, ts]
        elif ts < span[0]:
            span[0] = ts

    def warp_phase(self, track: str, category: str, ts: float) -> None:
        """Close the open interval of *track* at *ts* and open *category*.

        Intervals are contiguous by construction, which is what makes
        the attribution table reconcile exactly with warp residency.
        """
        open_interval = self._open_warp.get(track)
        if open_interval is not None:
            cat, start = open_interval
            if ts > start:
                per_track = self.stall_totals.setdefault(track, {})
                per_track[cat] = per_track.get(cat, 0.0) + (ts - start)
                self.spans.append((track, cat, start, ts, None))
        self._open_warp[track] = (category, ts)

    def warp_end(self, track: str, ts: float) -> None:
        """The warp on *track* retired at *ts*."""
        self.warp_phase(track, "sched", ts)
        self._open_warp.pop(track, None)
        begin = self._warp_begin.pop(track, ts)
        self.warp_active[track] = self.warp_active.get(track, 0.0) + (ts - begin)
        span = self.warp_span[track]
        if ts > span[1]:
            span[1] = ts
        self.spans.append((track, "warp", begin, ts, None))

    # ------------------------------------------------------------------
    # persist lifecycle
    # ------------------------------------------------------------------
    def persist_store(self, sm_id: int, line_addr: int, ts: float) -> None:
        """A PM store dirtied *line_addr* in *sm_id*'s L1 (or coalesced
        into its live buffered persist)."""
        key = (sm_id, line_addr)
        record = self._open_persists.get(key)
        if record is not None:
            record.stores += 1
            self.coalesced_stores += 1
            return
        self._open_persists[key] = PersistTrace(
            pid=next(self._persist_ids),
            sm_id=sm_id,
            line_addr=line_addr,
            t_store=ts,
        )
        self.persist_count += 1

    def persist_delay(self, sm_id: int, line_addr: int, reason: str) -> None:
        """A drain pass skipped the line's persist for *reason* (one of
        fsm / window / lazy / edm / actr).  Counted per pass."""
        self.delay_counts[reason] = self.delay_counts.get(reason, 0) + 1
        record = self._open_persists.get((sm_id, line_addr))
        if record is not None:
            record.delays[reason] = record.delays.get(reason, 0) + 1

    def persist_flush(
        self,
        sm_id: int,
        line_addr: int,
        t_drain: float,
        t_accept: float,
        t_ack: float,
    ) -> None:
        """The line's persist was flushed to the persistence domain."""
        record = self._open_persists.pop((sm_id, line_addr), None)
        if record is None:
            # A flush of a line whose store predates tracing: still
            # record the memory-side phases.
            record = PersistTrace(
                pid=next(self._persist_ids),
                sm_id=sm_id,
                line_addr=line_addr,
                t_store=t_drain,
            )
            self.persist_count += 1
        record.t_drain = t_drain
        record.t_accept = t_accept
        record.t_ack = t_ack
        for phase, latency in record.phase_latencies().items():
            self.phase_hist[phase].observe(latency)
        self.persists.append(record)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def event_count(self) -> int:
        """Total timeline events currently buffered."""
        return (
            len(self.spans)
            + len(self.instants)
            + len(self.counters)
            + len(self.persists)
        )

    def __repr__(self) -> str:
        return f"Tracer({self.event_count()} events)"

