"""One serving SLO measurement: throughput, latency percentiles,
recovery time under load.

``run_serve_scenario`` executes a planned request stream (one
:class:`~repro.serve.app.ServeKVS` instance) on a fresh simulated
machine, then prices the stream against its open-loop arrival times:

* batch *b* cannot start before its last request arrives
  (``Batch.ready_time``) nor before batch *b-1* finished (group commit
  is in-order), so ``start = max(prev_finish, ready)`` and
  ``finish = start + kernel_cycles`` on a host-side virtual clock;
* a request's latency is ``finish(batch) - arrival`` — queueing delay
  plus service time, recorded into a local
  :class:`~repro.metrics.registry.MetricHistogram` whose deterministic
  p50/p95/p99 land in the result stats;
* throughput is requests per simulated second over the stream's span;
* recovery time reuses :class:`~repro.crash.CrashHarness`'s worst-case
  crash point (the paper's Figure 11 scenario) on the served run itself
  — power fails just before the last commit durably lands, the recovery
  kernel runs on a rebooted machine, and its cycles are the
  recovery-under-load cost.

Everything is a deterministic function of (app params, config), so
serve reports are byte-identical across Executor worker counts.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.apps import build_app
from repro.bench.runner import ScenarioResult
from repro.common.config import SystemConfig
from repro.common.units import CLOCK_MHZ
from repro.crash import CrashHarness
from repro.metrics.registry import MetricHistogram
from repro.system import GPUSystem


def run_serve_scenario(
    app_name: str,
    config: SystemConfig,
    app_params: Optional[dict] = None,
    measure_recovery: bool = True,
) -> ScenarioResult:
    """Serve one request stream and report its SLO numbers."""
    params = dict(app_params or {})
    system = GPUSystem(config)
    app = build_app(app_name, **params)
    app.setup(system)
    outcome = app.run(system)
    system.sync()
    app.check(system, complete=True)

    # Price the stream on the open-loop virtual clock: each batch is
    # one launch, so batches and kernels pair by position.
    plan = app.plan
    finish = 0.0
    batch_rows = []
    latencies = MetricHistogram()  # request latency, cycles
    for batch, kernel in zip(plan.batches, outcome.kernels, strict=True):
        start = max(finish, float(batch.ready_time))
        finish = start + kernel.cycles
        batch_rows.append(
            {
                "batch": batch.index,
                "requests": len(batch.requests),
                "ready": batch.ready_time,
                "start": start,
                "finish": finish,
                "kernel_cycles": kernel.cycles,
            }
        )
        for req in batch.requests:
            latencies.observe(finish - req.arrival)

    latency = latencies.summary()
    span_s = finish / (CLOCK_MHZ * 1e6)
    n_requests = len(plan.requests)
    throughput = n_requests / span_s if span_s > 0 else 0.0

    recovery_cycles = 0.0
    if measure_recovery:
        harness = CrashHarness(lambda: build_app(app_name, **params), config)
        recovery_cycles = harness.adopt(
            system, outcome
        ).recovery_cycles_at_worst_case()

    paths = app.path_counts()
    stats: Dict[str, float] = {
        "serve.requests": float(n_requests),
        "serve.batches": float(len(plan.batches)),
        "serve.span_cycles": finish,
        "serve.throughput_rps": throughput,
        "serve.latency_p50": latency.get("p50", 0.0),
        "serve.latency_p95": latency.get("p95", 0.0),
        "serve.latency_p99": latency.get("p99", 0.0),
        "serve.latency_mean": latency.get("mean", 0.0),
        "serve.recovery_cycles": recovery_cycles,
        "serve.path_pb": float(paths["pb"]),
        "serve.path_direct": float(paths["direct"]),
    }
    detail: Dict[str, Any] = {
        "policy": params.get("policy", "adaptive"),
        "mix": params.get("mix", "update_heavy"),
        "batches": batch_rows,
    }
    return ScenarioResult(
        app=app_name,
        label=config.label,
        cycles=outcome.cycles,
        stats=stats,
        detail=detail,
        metrics=system.stats.snapshot(),
    )
