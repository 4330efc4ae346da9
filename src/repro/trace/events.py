"""Typed trace records.

The hot path of the tracer appends plain tuples into bounded deques (a
ring buffer: old events fall off the back of a long run instead of
growing memory without bound).  The tuple shapes are:

* span      — ``(track, name, start, end, args_or_None)``
* counter   — ``(track, name, ts, value)``

Aggregates that must stay *complete* regardless of ring-buffer drops
(stall totals, lifecycle histograms, device busy time) are accumulated
online in plain dicts; only the per-event timeline is bounded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


#: Persist-lifecycle phases, in order (names used by report + exporter).
LIFECYCLE_PHASES = ("buffer", "drain", "ack")


@dataclass
class PersistTrace:
    """Lifecycle of one PM line from L1 write to durability.

    ``t_store``   — first PM store that dirtied the line (L1 write /
                    PB-entry creation under SBRP).
    ``t_drain``   — the drain pump (or barrier/eviction) issued the flush.
    ``t_accept``  — the memory controller accepted it (ADR durability).
    ``t_ack``     — the acknowledgement arrived back at the SM.
    ``delays``    — per-reason counts of drain passes that skipped this
                    persist (fsm / window / lazy / edm / actr).
    ``stores``    — stores coalesced into the line while buffered.
    """

    pid: int
    sm_id: int
    line_addr: int
    t_store: float
    t_drain: float = -1.0
    t_accept: float = -1.0
    t_ack: float = -1.0
    stores: int = 1
    delays: Dict[str, int] = field(default_factory=dict)

    def phase_latencies(self) -> Dict[str, float]:
        """Per-phase latencies; negative phases (untraced) are omitted."""
        out: Dict[str, float] = {}
        if self.t_drain >= 0:
            out["buffer"] = self.t_drain - self.t_store
        if self.t_accept >= 0 and self.t_drain >= 0:
            out["drain"] = self.t_accept - self.t_drain
        if self.t_ack >= 0 and self.t_accept >= 0:
            out["ack"] = self.t_ack - self.t_accept
        return out


#: Stall-attribution categories in report column order.  Every cycle of
#: a warp's residency lands in exactly one of these.
STALL_CATEGORIES: List[str] = [
    "compute",
    "ld",
    "st",
    "atomic",
    "ofence",
    "dfence",
    "pacq",
    "prel",
    "threadfence",
    "barrier",
    "sched",
]

#: Categories that are pure waiting on the persistency model (the
#: "stall" half of the table, vs. useful work + scheduler residency).
FENCE_CATEGORIES = ("ofence", "dfence", "pacq", "prel", "threadfence")
