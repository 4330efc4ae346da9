"""Serving SLO benchmark: the models x persist-path-policies grid.

``python -m repro.serve.bench`` runs the planned request stream through
the crash-isolated :class:`~repro.exec.Executor` as ``mode="serve"``
jobs — one cell per (persistency model, persist-path policy) — and
writes a sorted-key JSON report of each cell's throughput, latency
percentiles (p50/p95/p99 from a request-latency
:class:`~repro.metrics.registry.MetricHistogram`) and worst-case
recovery-under-load time.  Every stat is a deterministic
function of (app params, system config), so the report is byte-identical
across ``--workers`` counts; the smoke report is the ``serve_smoke`` pin
of :mod:`repro.perfcore.goldens`, checked at one and two workers.

The summary block reports the paper-style ablation ratio per model:
adaptive path selection versus each forced-path baseline (a test asserts
adaptive beats the forced-PB baseline under SBRP on the default
mixed-size workload).

Command line::

    python -m repro.serve.bench                  # full grid -> serve JSON
    python -m repro.serve.bench --smoke          # CI-sized stream
    python -m repro.serve.bench --workers 4      # crash-isolated pool
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.common.config import ModelName, small_system
from repro.exec import Executor, ScenarioJob
from repro.exec.executor import add_timeout_arg, positive_int
from repro.exec.jobs import MODE_SERVE
from repro.serve.txn import POLICIES, POLICY_ADAPTIVE

#: Persistency models of the grid, report order.
SERVE_MODELS = (ModelName.GPM, ModelName.EPOCH, ModelName.SBRP)

#: App params of the full benchmark stream: the showcase defaults of
#: :class:`~repro.serve.app.ServeKVSParams` (256-request zipfian
#: RMW-heavy mix, mixed payload sizes, 128-request batches) at a
#: saturating offered load — arrivals outpace service, so the span
#: measures serving *capacity* and the latency percentiles include
#: queueing under backlog.  At the default trickle rate the system
#: idles between batches and every policy looks alike.
SERVE_PARAMS: Dict[str, Any] = {"rate_per_kcycle": 40.0}

#: CI-sized stream: same structure, ~3x fewer simulated cycles.
SMOKE_PARAMS: Dict[str, Any] = {
    "n_requests": 96,
    "n_keys": 96,
    "capacity": 256,
    "batch_requests": 48,
    "rate_per_kcycle": 40.0,
}

#: Result-stat keys copied into each report cell.
CELL_STATS = (
    "serve.requests",
    "serve.batches",
    "serve.span_cycles",
    "serve.throughput_rps",
    "serve.latency_p50",
    "serve.latency_p95",
    "serve.latency_p99",
    "serve.latency_mean",
    "serve.recovery_cycles",
    "serve.path_pb",
    "serve.path_direct",
)


def suite_jobs(smoke: bool = False) -> List[ScenarioJob]:
    """The grid's jobs: one serve measurement per model x policy."""
    params = SMOKE_PARAMS if smoke else SERVE_PARAMS
    jobs: List[ScenarioJob] = []
    for model in SERVE_MODELS:
        for policy in POLICIES:
            jobs.append(
                ScenarioJob(
                    app="serve_kvs",
                    config=small_system(model),
                    app_params={"policy": policy, **params},
                    mode=MODE_SERVE,
                )
            )
    return jobs


def cell_name(job: ScenarioJob) -> str:
    return f"{job.config.label}/{job.app_params['policy']}"


def build_report(
    jobs: List[ScenarioJob], results: List[Any], smoke: bool
) -> Dict[str, Any]:
    """Assemble the sorted-key report document."""
    cells: Dict[str, Any] = {}
    for job, result in zip(jobs, results):
        cell = {key: result.stats[key] for key in CELL_STATS}
        cell["cycles"] = result.cycles
        cells[cell_name(job)] = cell

    # Per-model ablation: adaptive vs each forced baseline on service
    # cycles (sum of kernel cycles, queueing excluded; < 1 means
    # adaptive serves the stream faster).
    summary: Dict[str, Any] = {}
    for model in SERVE_MODELS:
        label = small_system(model).label
        adaptive = cells[f"{label}/{POLICY_ADAPTIVE}"]["cycles"]
        ratios = {}
        for policy in POLICIES:
            if policy == POLICY_ADAPTIVE:
                continue
            forced = cells[f"{label}/{policy}"]["cycles"]
            ratios[f"adaptive_vs_{policy}"] = (
                adaptive / forced if forced else 0.0
            )
        summary[label] = ratios

    return {
        "schema": 1,
        "suite": "smoke" if smoke else "full",
        "app_params": dict(SMOKE_PARAMS if smoke else SERVE_PARAMS),
        "cells": cells,
        "summary": summary,
    }


def render_report(doc: Dict[str, Any]) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.bench",
        description="Serve the YCSB-style stream across persistency "
        "models and persist-path policies; report throughput, tail "
        "latency and recovery time.",
    )
    parser.add_argument(
        "--smoke", action="store_true", help="CI-sized stream"
    )
    parser.add_argument(
        "--workers", type=positive_int, default=1,
        help="crash-isolated worker processes (default: 1; the report "
        "is byte-identical across counts)",
    )
    parser.add_argument(
        "--out", default=None,
        help="output path (default: serve_<suite>.json in cwd)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-cell progress"
    )
    add_timeout_arg(parser)
    args = parser.parse_args(argv)

    jobs = suite_jobs(smoke=args.smoke)
    executor = Executor(workers=args.workers, timeout=args.timeout)
    results = executor.submit(jobs)
    doc = build_report(jobs, results, smoke=args.smoke)

    if not args.quiet:
        for job, result in zip(jobs, results):
            stats = result.stats
            print(
                f"  {cell_name(job):28s} "
                f"{stats['serve.throughput_rps']:>12.0f} req/s  "
                f"p99 {stats['serve.latency_p99']:>8.0f} cy  "
                f"recovery {stats['serve.recovery_cycles']:>8.0f} cy",
                file=sys.stderr,
            )
        print(f"  {executor.footer()}", file=sys.stderr)

    suite = "smoke" if args.smoke else "full"
    out = Path(args.out) if args.out else Path(f"serve_{suite}.json")
    out.write_text(render_report(doc), encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    raise SystemExit(main())
