"""Check every behaviour pin, or re-pin: the one pin tool.

:data:`PINS` is the manifest.  Each pin is a committed file and one
producer, ``render(workers) -> str``, that returns the file's exact
bytes.  A pooled pin fans its runs out over ``workers`` processes and
must produce the same bytes at every worker count; a serial pin runs
in-process and is produced once whatever ``--workers`` lists.

* check mode (the default) produces each selected pin at every listed
  worker count and compares it with the committed file.  A mismatch is
  reported by where it moved: the dotted field paths for a JSON pin,
  the first differing line for a text pin.  A producer that fails (a
  failed grid cell, a conformance run with a violation or an uncaught
  mutant, a failed sweep job) fails the check;
* ``--regenerate`` rewrites the selected pins.  It **refuses** to start
  when a pin file already differs from git HEAD (that is what a
  hand-edited pin looks like) unless ``--force`` is given, and it
  refuses to write a pin whose producer failed or whose worker counts
  disagree: regeneration must never launder local edits or a broken run
  into a new baseline.

Command line::

    python -m repro.perfcore.goldens                      # every pin
    python -m repro.perfcore.goldens grid issue_order     # a subset
    python -m repro.perfcore.goldens --workers 1 2        # worker parity
    python -m repro.perfcore.goldens grid --regenerate    # re-pin

Exit status: 0 when every selected pin matched (or was rewritten), 1 on
any mismatch, failed producer or refused re-pin.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro.check import conformance
from repro.exec import sweep
from repro.exec.executor import Executor, JobFailedError, positive_int
from repro.perfcore import allowed_images, issue_order
from repro.perfcore.fingerprint import diff_paths
from repro.perfcore.grid import GridCell, build_grid, run_cell
from repro.serve import bench as serve_bench

#: The repository root; manifest paths are relative to it.
ROOT = Path(__file__).resolve().parents[3]


class ProducerFailed(RuntimeError):
    """A pin's producer ran but its run is not a valid pin."""


@dataclass(frozen=True)
class Pin:
    #: Committed file, relative to :data:`ROOT` (or absolute).
    path: Path
    #: ``render(workers) -> str``: the file's exact contents.
    render: Callable[[int], str]
    #: Produced over a worker pool (else serially in-process).
    pooled: bool

    @property
    def file(self) -> Path:
        return ROOT / self.path

    def label(self, workers: int) -> str:
        return f"workers={workers}" if self.pooled else "serial"


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


def _grid(workers: int) -> str:
    cells = build_grid()
    prints = run_cells(cells, workers)
    failed = [cell.name for cell, fp in zip(cells, prints) if "error" in fp]
    if failed:
        raise ProducerFailed(f"failed cells: {failed}")
    pins = {cell.name: fp for cell, fp in zip(cells, prints)}
    return json.dumps(pins, indent=1, sort_keys=True) + "\n"


def _cli(module: Any, *flags: str) -> Callable[[int], str]:
    """The report ``python -m <module> *flags`` writes."""

    def render(workers: int) -> str:
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "report.json")
            argv = [*flags, "--quiet", "--workers", str(workers), "--out", out]
            status = module.main(argv)
            text = Path(out).read_text(encoding="utf-8")
        if status != 0:
            raise ProducerFailed(
                f"{module.__name__} exited {status}: "
                f"{json.loads(text).get('summary')}"
            )
        return text

    return render


#: The manifest: every committed behaviour pin and its one producer.
PINS: Dict[str, Pin] = {
    "grid": Pin(Path("tests/perfcore/grid_pins.json"), _grid, pooled=True),
    "issue_order": Pin(
        Path("tests/perfcore/issue_order_pins.json"),
        lambda workers: issue_order.render(),
        pooled=False,
    ),
    "allowed_images": Pin(
        Path("tests/formal/allowed_images.json"),
        lambda workers: allowed_images.render(),
        pooled=False,
    ),
    "conformance_smoke": Pin(
        Path("tests/check/conformance_smoke.json"),
        _cli(conformance, "--smoke"),
        pooled=True,
    ),
    "conformance_mini": Pin(
        Path("tests/check/conformance_mini.json"),
        _cli(conformance, "--programs", "10", "--mutant-programs", "2"),
        pooled=True,
    ),
    "serve_smoke": Pin(
        Path("tests/serve/serve_smoke.json"),
        _cli(serve_bench, "--smoke"),
        pooled=True,
    ),
    "figure_tables": Pin(
        Path("figure_tables.txt"),
        lambda workers: sweep.tables(Executor(workers=workers), preset="quick"),
        pooled=True,
    ),
}


def where(path: Path, pinned: str, got: str) -> str:
    """Where *got* moved from *pinned*: the field paths of a JSON pin,
    else the first differing line."""
    if path.suffix == ".json":
        try:
            moved = diff_paths(json.loads(pinned), json.loads(got))
        except ValueError:  # a pin file broken by hand: compare lines
            moved = []
        if moved:
            return ", ".join(moved)
    old, new = pinned.splitlines(), got.splitlines()
    for number, (a, b) in enumerate(zip(old, new), start=1):
        if a != b:
            return f"line {number}: pinned {a!r}, got {b!r}"
    return f"line {min(len(old), len(new)) + 1}: length differs"


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


def _produce(name: str, pin: Pin, workers: List[int]) -> Dict[int, str]:
    """The pin's text at each worker count (one serial run for a serial
    pin); raises :class:`ProducerFailed` or the producer's own error."""
    texts: Dict[int, str] = {}
    for count in workers if pin.pooled else workers[:1]:
        started = time.monotonic()
        texts[count] = pin.render(count)
        elapsed = time.monotonic() - started
        print(f"  {name:18s} {pin.label(count):10s} {elapsed:6.1f}s")
    return texts


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perfcore.goldens",
        description="Check every behaviour pin against a fresh run, or "
        "re-pin.",
    )
    parser.add_argument(
        "pins", nargs="*", metavar="PIN",
        help=f"pins to check or re-pin (default: all of {', '.join(PINS)})",
    )
    parser.add_argument(
        "--workers", type=positive_int, nargs="+", default=[1], metavar="N",
        help="produce each pooled pin at every one of these worker counts "
        "(default: 1 = in-process)",
    )
    parser.add_argument(
        "--regenerate", action="store_true",
        help="rewrite the selected pins from fresh runs",
    )
    parser.add_argument(
        "--force", action="store_true",
        help="regenerate even when a pin file has uncommitted changes",
    )
    args = parser.parse_args(argv)
    unknown = [name for name in args.pins if name not in PINS]
    if unknown:
        parser.error(f"unknown pins {unknown}; have {list(PINS)}")
    names = list(dict.fromkeys(args.pins)) or list(PINS)
    workers = list(dict.fromkeys(args.workers))

    if args.regenerate and not args.force:
        dirty = [
            str(PINS[name].path)
            for name in names
            if PINS[name].file.exists() and _git_dirty(PINS[name].file)
        ]
        if dirty:
            print(
                f"{dirty} already differ from git HEAD -- refusing to "
                "regenerate on top of local (possibly hand-made) edits.  "
                "Commit or revert the files first, or pass --force.",
                file=sys.stderr,
            )
            return 1

    bad = 0
    for name in names:
        pin = PINS[name]
        try:
            texts = _produce(name, pin, workers)
        except (ProducerFailed, JobFailedError) as err:
            print(f"{name}: producer failed: {err}", file=sys.stderr)
            bad += 1
            continue
        pinned = pin.file.read_text(encoding="utf-8") if pin.file.exists() else None
        # A re-pin takes the first worker count's text; the others must
        # agree with it, as in check mode they must agree with the pin.
        first = texts[workers[0]]
        if args.regenerate:
            reference, source = first, pin.label(workers[0])
        else:
            reference, source = pinned, pin.path
        if reference is None:
            print(f"{name}: no pin file at {pin.path}", file=sys.stderr)
            bad += 1
            continue
        split = [count for count, text in texts.items() if text != reference]
        for count in split:
            print(
                f"{name}: {pin.label(count)} differs from {source} at "
                f"{where(pin.path, reference, texts[count])}",
                file=sys.stderr,
            )
        if split:
            bad += 1
        elif args.regenerate:
            pin.file.write_text(first, encoding="utf-8")
            moved = (
                "new" if pinned is None
                else "unchanged" if pinned == first
                else f"moved at {where(pin.path, pinned, first)}"
            )
            print(f"{name}: wrote {pin.path} ({moved})")

    if bad:
        print(f"{bad} of {len(names)} pin(s) failed", file=sys.stderr)
        return 1
    if not args.regenerate:
        print(f"all {len(names)} pin(s) match")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    raise SystemExit(main())
