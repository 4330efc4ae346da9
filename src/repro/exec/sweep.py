"""Run the full paper evaluation end-to-end through one Executor.

Usage::

    python -m repro.exec.sweep --workers 4                  # everything
    python -m repro.exec.sweep --figures 6 8 --apps gpkvs   # a subset
    python -m repro.exec.sweep --preset paper --workers 8   # full sizes

All selected figure drivers and ablations share one
:class:`~repro.exec.Executor`, so the Epoch-far/Epoch-near baselines
that recur across figures simulate once.  The selected drivers run in
registry order, each once, whatever order ``--figures`` names them in:
Figure 6's recovering PM-near runs then answer Figures 7, 8, 10 and 11.
``--out`` writes only the tables, so two invocations that agree on the
data produce byte-identical files regardless of workers.  This is the
one way to regenerate the figures: ``--preset quick --out
figure_tables.txt`` rewrites the committed quick-preset tables, which
CI diffs against a fresh sweep.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Dict, List, Optional

from repro.bench.ablations import ablation_coalescing, ablation_drain_policy
from repro.bench.figures import (
    figure6,
    figure7,
    figure8,
    figure9,
    figure10a,
    figure10b,
    figure10c,
    figure11,
)
from repro.bench.workloads import APP_ORDER, SCOPED_APPS, WORKLOADS
from repro.exec.executor import (
    Executor,
    add_pool_args,
    pool_kwargs,
    positive_int,
)
from repro.exec.pool import PoolEvent

#: Driver registry in presentation order.  Figure 7 only covers the
#: apps with inter-thread scoped PMO.
FIGURES: Dict[str, Callable] = {
    "6": figure6,
    "7": figure7,
    "8": figure8,
    "9": figure9,
    "10a": figure10a,
    "10b": figure10b,
    "10c": figure10c,
    "11": figure11,
    "drain": ablation_drain_policy,
    "coalescing": ablation_coalescing,
}

_SCOPED_ONLY = {"7"}
_NO_TRACE_DIR = {"drain", "coalescing"}


def _progress_printer(stream) -> Callable[[PoolEvent], None]:
    def emit(event: PoolEvent) -> None:
        if event.kind == "done":
            print(
                f"  [{event.done}/{event.total}] {event.label}: {event.status}",
                file=stream,
            )
        elif event.kind == "retry":
            print(
                f"  retrying {event.label} (attempt {event.attempt} "
                f"ended in {event.status})",
                file=stream,
            )

    return emit


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.exec.sweep",
        description="Regenerate the paper's evaluation through the "
        "parallel scenario executor.",
    )
    parser.add_argument(
        "--preset",
        default="quick",
        choices=sorted(WORKLOADS),
        help="workload preset (default: quick)",
    )
    parser.add_argument(
        "--figures",
        nargs="+",
        default=list(FIGURES),
        choices=list(FIGURES),
        metavar="FIG",
        help="which drivers to run, in registry order whatever the "
        f"order given (default: all of {', '.join(FIGURES)})",
    )
    parser.add_argument(
        "--apps",
        nargs="+",
        default=None,
        choices=APP_ORDER,
        metavar="APP",
        help="restrict every figure to these apps (default: all)",
    )
    parser.add_argument(
        "--workers",
        type=positive_int,
        default=1,
        help="worker processes (1 = serial in-process fallback)",
    )
    parser.add_argument(
        "--trace-dir",
        default=None,
        help="write per-scenario traces here",
    )
    add_pool_args(parser)
    parser.add_argument(
        "--out",
        default=None,
        help="also write the tables (and nothing else) to this file",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-job progress"
    )
    args = parser.parse_args(argv)

    executor = Executor(
        workers=args.workers,
        progress=None if args.quiet else _progress_printer(sys.stderr),
        **pool_kwargs(args),
    )

    started = time.monotonic()
    tables = []
    for name, driver in FIGURES.items():
        if name not in args.figures:
            continue
        apps = args.apps
        if name in _SCOPED_ONLY:
            pool = apps if apps is not None else APP_ORDER
            apps = [a for a in pool if a in SCOPED_APPS]
            if not apps:
                print(
                    f"-- skipping figure {name}: no scoped apps selected",
                    file=sys.stderr,
                )
                continue
        kwargs = dict(preset=args.preset, apps=apps, executor=executor)
        if args.trace_dir is not None and name not in _NO_TRACE_DIR:
            kwargs["trace_dir"] = args.trace_dir
        print(f"-- running {driver.__name__} --", file=sys.stderr)
        tables.append(driver(**kwargs))

    elapsed = time.monotonic() - started
    body = "\n\n".join(table.to_ascii() for table in tables) + "\n"
    print(body)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(body)

    print(f"sweep finished in {elapsed:.1f}s", file=sys.stderr)
    print(executor.footer(), file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    raise SystemExit(main())
