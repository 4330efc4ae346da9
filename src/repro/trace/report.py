"""ASCII profile report over a trace.

Renders one ``trace.json`` as written by :mod:`repro.trace.perfetto`
(a live :class:`~repro.trace.tracer.Tracer` goes through the same
:func:`~repro.trace.perfetto.chrome_trace` reduction):

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
from typing import List, Mapping, Optional

from repro.trace.events import STALL_CATEGORIES
from repro.trace.perfetto import chrome_trace
from repro.trace.tracer import Tracer


def load_trace(path: str | Path) -> dict:
    """Load a ``trace.json`` written by :mod:`repro.trace.perfetto`.

    Raises :class:`ValueError` for any other JSON shape, including a
    trace whose ``otherData`` lacks the exact ``stalls`` aggregates the
    report reads.
    """
    trace = json.loads(Path(path).read_text())
    if not isinstance(trace, dict):
        kind = type(trace).__name__
        raise ValueError(f"top level is a JSON {kind}, not an object")
    events = trace.get("traceEvents", [])
    if not isinstance(events, list) or not all(isinstance(e, dict) for e in events):
        raise ValueError("traceEvents must be an array of event objects")
    other = trace.get("otherData") or {}
    if not isinstance(other, dict):
        raise ValueError("otherData must be an object")
    if "stalls" not in other:
        raise ValueError("otherData has no stalls: not written by repro.trace")
    return trace


def reconcile(trace: Mapping) -> dict:
    """Reconciliation figures for the stall table.

    Returns a dict with, per warp track, the attributed total and the
    measured residency, plus the overall attribution ratio and the
    trace-span vs end-to-end-cycles ratio.
    """
    agg = trace["otherData"]
    stalls: Mapping[str, Mapping[str, float]] = agg["stalls"]
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
    agg = trace["otherData"]
    recon = reconcile(trace)
    config = agg.get("config") or {}
    header = f"== trace profile: model={config.get('model', '?')}"
    placement = (config.get("memory") or {}).get("placement")
    if placement:
        header += f"-{placement}"
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
