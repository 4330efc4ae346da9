"""ASCII profile report over a trace.

Renders, from either a live :class:`~repro.trace.tracer.Tracer` or an
exported ``trace.json`` file:

* the **per-warp stall-attribution table** — every cycle of every warp
  slot's residency attributed to one category (compute / ld / st /
  atomic / ofence / dfence / pacq / prel / threadfence / barrier /
  sched), with a reconciliation column against the slot's measured
  residency (always ~100%: intervals are contiguous by construction);
* the **persist-lifecycle profile** — persist counts, store coalescing,
  per-phase latency histogram summaries (L1→drain, drain→durable,
  durable→ack) and drain delay-reason counts (fsm / window / lazy /
  edm / actr);
* **device utilisation** — busy cycles per NVM / GDDR / PCIe channel.

Command line::

    python -m repro.trace.report trace.json
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Dict, List, Mapping, Optional

from repro.trace.events import STALL_CATEGORIES
from repro.trace.perfetto import chrome_trace
from repro.trace.tracer import Tracer


def load_trace(path: str | Path) -> dict:
    """Load a Chrome trace JSON file as an object trace.

    The Chrome trace format also allows a bare event array; it is
    wrapped as ``{"traceEvents": [...]}``.  Raises :class:`ValueError`
    for any other shape.
    """
    trace = json.loads(Path(path).read_text())
    if isinstance(trace, list):
        trace = {"traceEvents": trace}
    if not isinstance(trace, dict):
        kind = type(trace).__name__
        raise ValueError(f"top level is a JSON {kind}, not an object or array")
    events = trace.get("traceEvents", [])
    if not isinstance(events, list) or not all(isinstance(e, dict) for e in events):
        raise ValueError("traceEvents must be an array of event objects")
    if not isinstance(trace.get("otherData") or {}, dict):
        raise ValueError("otherData must be an object")
    return trace


def _aggregates(trace: Mapping) -> dict:
    """The exact aggregates: embedded otherData when present, else
    reconstructed from the timeline's X events (foreign traces)."""
    other = trace.get("otherData") or {}
    if "stalls" in other:
        return dict(other)
    stalls: Dict[str, Dict[str, float]] = {}
    active: Dict[str, float] = {}
    span: Dict[str, List[float]] = {}
    names = {}
    for event in trace.get("traceEvents", []):
        if event.get("ph") == "M" and event.get("name") == "thread_name":
            names[(event["pid"], event["tid"])] = event["args"]["name"]
    for event in trace.get("traceEvents", []):
        if event.get("ph") != "X":
            continue
        track = names.get((event.get("pid"), event.get("tid")), "?")
        name, ts, dur = event["name"], event["ts"], event.get("dur", 0.0)
        if name == "warp":
            active[track] = active.get(track, 0.0) + dur
            bounds = span.setdefault(track, [ts, ts + dur])
            bounds[0] = min(bounds[0], ts)
            bounds[1] = max(bounds[1], ts + dur)
        elif name in STALL_CATEGORIES:
            stalls.setdefault(track, {})
            stalls[track][name] = stalls[track].get(name, 0.0) + dur
    out = dict(other)
    out.setdefault("stalls", stalls)
    out.setdefault("warp_active", active)
    out.setdefault("warp_span", span)
    return out


def reconcile(trace: Mapping) -> dict:
    """Reconciliation figures for the stall table.

    Returns a dict with, per warp track, the attributed total and the
    measured residency, plus the overall attribution ratio and the
    trace-span vs end-to-end-cycles ratio.
    """
    agg = _aggregates(trace)
    stalls: Mapping[str, Mapping[str, float]] = agg.get("stalls", {})
    active: Mapping[str, float] = agg.get("warp_active", {})
    per_track = {
        track: {
            "attributed": sum(cats.values()),
            "active": float(active.get(track, 0.0)),
        }
        for track, cats in stalls.items()
    }
    attributed = sum(row["attributed"] for row in per_track.values())
    residency = sum(row["active"] for row in per_track.values())
    spans = [bounds for bounds in agg.get("warp_span", {}).values()]
    span = (
        max(b[1] for b in spans) - min(b[0] for b in spans) if spans else 0.0
    )
    cycles = float(agg.get("cycles", 0.0) or 0.0)
    return {
        "per_track": per_track,
        "attributed": attributed,
        "residency": residency,
        "ratio": attributed / residency if residency else 1.0,
        "trace_span": span,
        "cycles": cycles,
        "span_ratio": span / cycles if cycles else 1.0,
    }


def _format_table(headers: List[str], rows: List[List[str]]) -> str:
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _stall_section(agg: dict, recon: dict) -> List[str]:
    stalls: Mapping[str, Mapping[str, float]] = agg.get("stalls", {})
    if not stalls:
        return ["(no warp activity traced)"]
    present = {cat for cats in stalls.values() for cat in cats}
    columns = [c for c in STALL_CATEGORIES if c in present]
    headers = ["warp"] + columns + ["total", "active", "recon%"]
    rows: List[List[str]] = []
    totals = {c: 0.0 for c in columns}
    for track in sorted(stalls):
        cats = stalls[track]
        entry = recon["per_track"][track]
        row = [track]
        for col in columns:
            value = float(cats.get(col, 0.0))
            totals[col] += value
            row.append(f"{value:.0f}")
        ratio = (
            100.0 * entry["attributed"] / entry["active"]
            if entry["active"]
            else 100.0
        )
        row += [f"{entry['attributed']:.0f}", f"{entry['active']:.0f}", f"{ratio:.1f}"]
        rows.append(row)
    total_row = ["TOTAL"] + [f"{totals[c]:.0f}" for c in columns]
    total_row += [
        f"{recon['attributed']:.0f}",
        f"{recon['residency']:.0f}",
        f"{100.0 * recon['ratio']:.1f}",
    ]
    rows.append(total_row)
    lines = ["per-warp stall attribution (cycles)", _format_table(headers, rows)]
    if recon["cycles"]:
        lines.append(
            f"trace span {recon['trace_span']:.0f} cycles over "
            f"end-to-end {recon['cycles']:.0f} cycles "
            f"({100.0 * recon['span_ratio']:.1f}%)"
        )
    return lines


def _lifecycle_section(agg: dict) -> List[str]:
    lifecycle = agg.get("lifecycle")
    if not lifecycle:
        return []
    lines = [
        "",
        "persist lifecycle",
        f"  persists: {lifecycle.get('persists', 0)}  "
        f"coalesced stores: {lifecycle.get('coalesced_stores', 0)}",
    ]
    phases = lifecycle.get("phases", {})
    labels = {
        "buffer": "store->drain  (L1/PB residency)",
        "drain": "drain->accept (flush to durability)",
        "ack": "accept->ack   (return trip)",
    }
    for phase in ("buffer", "drain", "ack"):
        # A histogram summary; traces written before the phases moved to
        # MetricHistogram carry count/total/max/mean/buckets instead,
        # which agree on the three keys read here.
        data = phases.get(phase)
        if not data or not data.get("count"):
            continue
        lines.append(
            f"  {labels[phase]}: n={int(data['count'])} "
            f"mean={float(data['mean']):.1f} max={float(data['max']):.0f} cycles"
        )
    delays = lifecycle.get("delays", {})
    if delays:
        parts = ", ".join(f"{k}={v}" for k, v in sorted(delays.items()))
        lines.append(f"  drain delays (pass-skips by reason): {parts}")
    return lines


def _device_section(agg: dict) -> List[str]:
    span_totals: Mapping[str, Mapping[str, float]] = agg.get("span_totals", {})
    cycles = float(agg.get("cycles", 0.0) or 0.0)
    rows = []
    for key in sorted(span_totals):
        track, _slash, name = key.partition("/")
        if not track.startswith(("nvm", "gddr", "pcie")):
            continue
        busy = float(span_totals[key]["cycles"])
        count = int(span_totals[key]["count"])
        util = f" ({100.0 * busy / cycles:.1f}%)" if cycles else ""
        rows.append(f"  {track}.{name}: {count} transfers, {busy:.0f} busy cycles{util}")
    return ["", "device utilisation"] + rows if rows else []


def render_report(trace: Mapping) -> str:
    """The full ASCII profile of one exported trace dict."""
    agg = _aggregates(trace)
    recon = reconcile(trace)
    config = agg.get("config") or {}
    label = config.get("model", "?") if isinstance(config, dict) else "?"
    placement = ""
    if isinstance(config, dict):
        memory = config.get("memory") or {}
        placement = f"-{memory.get('placement')}" if memory.get("placement") else ""
    header = f"== trace profile: model={label}{placement}"
    if recon["cycles"]:
        header += f", {recon['cycles']:.0f} cycles"
    header += " =="
    sections = [header, ""]
    sections += _stall_section(agg, recon)
    sections += _lifecycle_section(agg)
    sections += _device_section(agg)
    return "\n".join(sections)


def profile_tracer(
    tracer: Tracer,
    config: Optional[object] = None,
    cycles: Optional[float] = None,
) -> str:
    """Render the report directly from a live tracer."""
    return render_report(chrome_trace(tracer, config, cycles))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.trace.report",
        description="Print the stall-attribution / persist-lifecycle "
        "profile of an exported trace.json",
    )
    parser.add_argument("trace", help="path to a trace.json written by repro.trace")
    args = parser.parse_args(argv)
    try:
        trace = load_trace(args.trace)
    except OSError as exc:
        parser.error(f"cannot read {args.trace}: {exc.strerror or exc}")
    except json.JSONDecodeError as exc:
        parser.error(f"{args.trace} is not valid JSON: {exc}")
    except ValueError as exc:
        parser.error(f"{args.trace} is not a Chrome trace: {exc}")
    print(render_report(trace))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
