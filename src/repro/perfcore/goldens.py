"""Check the grid against its pins, or re-pin it.

``tests/perfcore/grid_pins.json`` maps every cell of the grid
(``repro.perfcore.grid``) to the fingerprint of its run, as sorted-key
JSON.  This CLI owns the file:

* default mode runs each cell once and diffs its fingerprint against
  its pin, reporting the dotted field paths that moved.  The report is
  a sorted-key JSON document that is **byte-identical across worker
  counts**; CI runs ``--workers 1`` and ``--workers 2`` and ``cmp``\\ s
  the outputs;
* ``--regenerate`` re-pins every cell from a fresh sweep.  It
  **refuses** when the working-tree file already differs from git HEAD
  (that is what a hand-edited pin looks like) unless ``--force`` is
  given: regeneration must start from a known-good pin, never launder
  local edits into a new baseline.

Command line::

    python -m repro.perfcore.goldens                  # check every cell
    python -m repro.perfcore.goldens --workers 2 --out report.json
    python -m repro.perfcore.goldens --cases litmus.sbrp.mp_ofence_split
    python -m repro.perfcore.goldens --list           # cell names only
    python -m repro.perfcore.goldens --regenerate     # re-pin the grid

Exit status: 0 when every cell matched its pin, 1 on any mismatch or
failed cell (and on a refused or failed re-pin).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.exec.executor import positive_int
from repro.perfcore.fingerprint import diff_paths
from repro.perfcore.grid import GridCell, build_grid, run_cell

#: Default location, relative to the repository root / CI cwd.
DEFAULT_PATH = Path("tests") / "perfcore" / "grid_pins.json"


def run_cells(cells: List[GridCell], workers: int = 1) -> List[Dict[str, Any]]:
    """Fingerprints of *cells*, in cell order.  With several workers the
    cells fan out over a crash-isolated pool; a cell whose worker died
    fingerprints as the failure."""
    if workers == 1:
        return [run_cell(cell.to_json()) for cell in cells]
    from repro.exec.pool import WorkerPool

    outcomes = WorkerPool(workers=workers).run(
        [cell.to_json() for cell in cells],
        run_cell,
        labels=[cell.name for cell in cells],
    )
    return [
        outcome.value
        if outcome.ok
        else {"error": f"cell failed: {outcome.status}: {outcome.error}"}
        for outcome in outcomes
    ]


def build_report(
    cells: List[GridCell],
    prints: List[Dict[str, Any]],
    pins: Dict[str, Any],
) -> Dict[str, Any]:
    """Diff each fingerprint against its pin.  Matching cells keep only
    their verdict; a mismatching cell carries its fresh fingerprint so
    the divergence is diffable from the report alone."""
    entries: Dict[str, Any] = {}
    mismatched: List[str] = []
    for cell, got in zip(cells, prints):
        pin = pins.get(cell.name)
        mismatches = ["<no pin>"] if pin is None else diff_paths(pin, got)
        entry: Dict[str, Any] = {
            "kind": cell.kind,
            "match": not mismatches,
            "mismatches": mismatches,
        }
        if mismatches:
            entry["fingerprint"] = got
            mismatched.append(cell.name)
        entries[cell.name] = entry
    return {
        "cells": entries,
        "total": len(cells),
        "mismatched": sorted(mismatched),
    }


def render_report(doc: Dict[str, Any]) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def render_pins(pins: Dict[str, Any]) -> str:
    return json.dumps(pins, indent=1, sort_keys=True) + "\n"


def _git_dirty(path: Path) -> Optional[bool]:
    """True when *path* has uncommitted changes; None when git cannot
    answer (not a repo, git missing) — the caller treats that as clean
    since there is no baseline to diverge from."""
    resolved = path.resolve()
    try:
        proc = subprocess.run(
            ["git", "status", "--porcelain", "--", str(resolved)],
            capture_output=True,
            text=True,
            check=True,
            cwd=str(resolved.parent),
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return bool(proc.stdout.strip())


def _regenerate(path: Path, cells: List[GridCell], args) -> int:
    if path.exists() and not args.force and _git_dirty(path):
        print(
            f"{path} already differs from git HEAD -- refusing to "
            "regenerate on top of local (possibly hand-made) edits.  "
            "Commit or revert the file first, or pass --force.",
            file=sys.stderr,
        )
        return 1
    prints = run_cells(cells, args.workers)
    failed = [cell.name for cell, fp in zip(cells, prints) if "error" in fp]
    if failed:
        print(f"refusing to pin failed cells: {failed}", file=sys.stderr)
        return 1
    pins = {cell.name: fp for cell, fp in zip(cells, prints)}
    path.write_text(render_pins(pins), encoding="utf-8")
    print(f"pinned {len(pins)} cells to {path}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perfcore.goldens",
        description="Check every grid cell against its pinned "
        "fingerprint, or re-pin the grid.",
    )
    parser.add_argument(
        "--file", type=Path, default=DEFAULT_PATH,
        help=f"pin file (default: {DEFAULT_PATH})",
    )
    parser.add_argument(
        "--cases", nargs="+", default=None, metavar="CELL",
        help="check only these cell names",
    )
    parser.add_argument(
        "--workers", type=positive_int, default=1,
        help="concurrent worker processes (default: 1 = in-process)",
    )
    parser.add_argument(
        "--out", default=None, help="write the JSON report here"
    )
    parser.add_argument(
        "--list", action="store_true", help="print cell names and exit"
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-cell progress"
    )
    parser.add_argument(
        "--regenerate", action="store_true",
        help="re-pin every cell from a fresh sweep",
    )
    parser.add_argument(
        "--force", action="store_true",
        help="regenerate even when the pin file has uncommitted changes",
    )
    args = parser.parse_args(argv)
    path: Path = args.file

    cells = build_grid()
    if args.cases is not None:
        known = {cell.name: cell for cell in cells}
        missing = [name for name in args.cases if name not in known]
        if missing:
            parser.error(f"unknown cells {missing}; have {sorted(known)}")
        if args.regenerate:
            parser.error("--regenerate re-pins the whole grid; drop --cases")
        cells = [known[name] for name in args.cases]
    if args.list:
        try:
            for cell in cells:
                print(cell.name)
        except BrokenPipeError:  # `... --list | head` closed the pipe
            sys.stderr.close()
        return 0
    if args.regenerate:
        return _regenerate(path, cells, args)

    if not path.exists():
        print(f"no pin file at {path}", file=sys.stderr)
        return 1
    pins = json.loads(path.read_text(encoding="utf-8"))
    doc = build_report(cells, run_cells(cells, args.workers), pins)

    if not args.quiet:
        for name, entry in doc["cells"].items():
            verdict = "ok" if entry["match"] else "MISMATCH"
            print(f"  {name:40s} {verdict}", file=sys.stderr)
    text = render_report(doc)
    if args.out is not None:
        Path(args.out).write_text(text, encoding="utf-8")
        if not args.quiet:
            print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(text, end="")

    if doc["mismatched"]:
        print(
            f"{len(doc['mismatched'])} of {doc['total']} cells diverged "
            f"from {path}: {doc['mismatched']}",
            file=sys.stderr,
        )
        for name in doc["mismatched"]:
            for mismatch in doc["cells"][name]["mismatches"]:
                print(f"  {name}.{mismatch}", file=sys.stderr)
        return 1
    if not args.quiet:
        print(f"all {doc['total']} cells match {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    raise SystemExit(main())
