"""Chrome/Perfetto ``trace.json`` export.

Produces the legacy Chrome trace-event JSON that ``ui.perfetto.dev``
(and ``chrome://tracing``) load directly:

* one thread track per SM warp slot (``sm0.w03``), per SM summary track,
  and per memory device (``nvm0``, ``gddr1``, ``pcie``);
* ``X`` (complete) events for warp residency intervals, kernel launches
  and device transfers;
* ``C`` (counter) tracks for PB occupancy / ACTR / WPQ depth;
* ``b``/``e`` async pairs for persist lifecycles (store → durable), so
  overlapping persists render without violating thread-track nesting.

Output is **deterministic**: keys are sorted, events are sorted by a
total order, and the file embeds the :class:`SystemConfig` snapshot
instead of any wall-clock data — two runs of the same scenario produce
byte-identical files (a test pins this, enabling diff-based regression
checks).
"""

from __future__ import annotations

import dataclasses
import enum
import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.trace.tracer import Tracer

#: pid of the GPU-side process group (SMs, warps, kernels).
GPU_PID = 1
#: pid of the memory-system process group (NVM / GDDR / PCIe).
MEM_PID = 2

_DEVICE_PREFIXES = ("nvm", "gddr", "pcie")


def jsonable(obj: object) -> object:
    """Recursively convert dataclasses / enums / tuples to JSON types."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    return obj


def _pid_for(track: str) -> int:
    return MEM_PID if track.startswith(_DEVICE_PREFIXES) else GPU_PID


def _track_ids(tracer: Tracer) -> Dict[str, Tuple[int, int]]:
    """Deterministic (pid, tid) per track name: tids are assigned in
    sorted track order within each pid."""
    tracks = {track for (track, *_rest) in tracer.spans}
    tracks.update(track for (track, *_rest) in tracer.counters)
    tracks.update(f"sm{rec.sm_id}.persist" for rec in tracer.persists)
    ids: Dict[str, Tuple[int, int]] = {}
    next_tid = {GPU_PID: 1, MEM_PID: 1}
    for track in sorted(tracks):
        pid = _pid_for(track)
        ids[track] = (pid, next_tid[pid])
        next_tid[pid] += 1
    return ids


def chrome_trace(
    tracer: Tracer,
    config: Optional[object] = None,
    cycles: Optional[float] = None,
) -> dict:
    """Build the Chrome trace-event dict for *tracer*.

    *config* (a :class:`SystemConfig`) and *cycles* (the run's final
    simulated time) are stamped into ``otherData`` together with the
    exact stall/lifecycle aggregates the report consumes.
    """
    ids = _track_ids(tracer)
    events: List[dict] = []
    # Metadata: process and thread names.
    for pid, name in ((GPU_PID, "gpu"), (MEM_PID, "memory")):
        events.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid,
                "tid": 0,
                "args": {"name": name},
            }
        )
    for track in sorted(ids):
        pid, tid = ids[track]
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": pid,
                "tid": tid,
                "args": {"name": track},
            }
        )
    timeline: List[dict] = []
    for track, name, start, end, args in tracer.spans:
        pid, tid = ids[track]
        event = {
            "ph": "X",
            "name": name,
            "cat": "span",
            "pid": pid,
            "tid": tid,
            "ts": start,
            "dur": end - start,
        }
        if args:
            event["args"] = jsonable(args)
        timeline.append(event)
    for track, name, ts, value in tracer.counters:
        pid, _tid = ids[track]
        timeline.append(
            {
                "ph": "C",
                "name": f"{track}.{name}",
                "cat": "counter",
                "pid": pid,
                "tid": 0,
                "ts": ts,
                "args": {"value": value},
            }
        )
    for rec in tracer.persists:
        track = f"sm{rec.sm_id}.persist"
        pid, tid = ids[track]
        end_ts = rec.t_accept if rec.t_accept >= 0 else rec.t_store
        common = {
            "cat": "persist",
            "id": str(rec.pid),
            "name": "persist",
            "pid": pid,
            "tid": tid,
        }
        timeline.append(
            {
                "ph": "b",
                "ts": rec.t_store,
                "args": {
                    "line_addr": rec.line_addr,
                    "stores": rec.stores,
                    "delays": dict(sorted(rec.delays.items())),
                    "t_drain": rec.t_drain,
                    "t_accept": rec.t_accept,
                    "t_ack": rec.t_ack,
                },
                **common,
            }
        )
        timeline.append({"ph": "e", "ts": end_ts, **common})
    # Total order: by timestamp, then a stable shape-based key, so the
    # output is independent of Python dict/deque iteration quirks.
    timeline.sort(
        key=lambda e: (e["ts"], e["pid"], e["tid"], e["ph"], e["name"], e.get("id", ""))
    )
    events.extend(timeline)
    other: Dict[str, object] = {
        "tool": "repro.trace",
        "stalls": {
            track: dict(sorted(cats.items()))
            for track, cats in sorted(tracer.stall_totals.items())
        },
        "warp_active": dict(sorted(tracer.warp_active.items())),
        "warp_span": dict(sorted(tracer.warp_span.items())),
        "warp_launches": dict(sorted(tracer.warp_launches.items())),
        "span_totals": {
            f"{track}/{name}": {"count": count, "cycles": total}
            for (track, name), (count, total) in sorted(tracer.span_totals.items())
        },
        "lifecycle": {
            "persists": tracer.persist_count,
            "coalesced_stores": tracer.coalesced_stores,
            "delays": dict(sorted(tracer.delay_counts.items())),
            "phases": {
                phase: hist.summary() for phase, hist in tracer.phase_hist.items()
            },
        },
    }
    if config is not None:
        other["config"] = jsonable(config)
    if cycles is not None:
        other["cycles"] = cycles
    return {
        "traceEvents": events,
        "displayTimeUnit": "ns",
        "otherData": other,
    }


def dumps(trace: dict) -> str:
    """Deterministic serialization (sorted keys, compact separators)."""
    return json.dumps(trace, sort_keys=True, separators=(",", ":"))


def write_chrome_trace(
    tracer: Tracer,
    path: str | Path,
    config: Optional[object] = None,
    cycles: Optional[float] = None,
) -> Path:
    """Export *tracer* to *path* as deterministic Chrome trace JSON."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(dumps(chrome_trace(tracer, config, cycles)) + "\n")
    return target
