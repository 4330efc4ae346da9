"""The benchmark's three workloads, driven through public entry points.

Each workload builds its inputs once (``__init__``, part of set-up),
runs one discarded warm-up op, and then runs *passes*: one pass is a
fixed amount of end-to-end work a user runs (a figure sweep, a served
request stream per model, a conformance campaign).  Ops inside a pass
run as a closed loop in this process: one op starts when the previous
one returns.  Every op's output is checked; a failed op is counted,
never dropped.

* ``figures`` -- Figure 6 (quick preset) and the Figure 11 recovery
  cells through one serial, uncached Executor with ``verify=True``.
  One op is one executed job.
* ``serve`` -- a seeded YCSB-A zipfian stream in 64-request batches at a
  saturating arrival rate, served by ServeKVS (adaptive persist path)
  under GPM, Epoch and SBRP on ``small_system`` with live metrics on.
  One op is one ``serve_batch`` call; each stream then closes with
  ``sync``, ``check(complete=True)`` and the worst-case crash recovery.
* ``conformance`` -- the directed corpus plus seeded fuzzed programs,
  each checked by ``check_program`` under GPM, Epoch and SBRP with the
  smoke variants and 48 crash points.  One op is one (program, model).
  A check that raises is a failed op.  The violations a check reports
  are its output about the simulator: they depend on the seed's
  programs, so they are counted exactly and listed, not failed.
"""

from __future__ import annotations

import math
import re
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional

from repro.apps import build_app
from repro.bench.figures import figure6, figure11
from repro.bench.runner import scenario_config
from repro.bench.workloads import APP_ORDER, workload
from repro.check import SMOKE_VARIANTS, corpus_programs, oracle
from repro.check.conformance import STOCK_MODELS
from repro.check.fuzzer import generate_stream
from repro.common.config import ModelName, PMPlacement, small_system
from repro.crash import CrashHarness
from repro.exec import Executor, ScenarioJob
from repro.exec.executor import JobFailedError
from repro.exec.jobs import MODE_RECOVERY, MODE_SCENARIO
from repro.metrics.registry import MetricsRegistry
from repro.system import GPUSystem

#: Exact simulated counts every pass reports (0 where a workload does
#: not exercise or expose the layer), with their units.  They repeat
#: exactly from run to run and with or without span wrappers.
COUNT_UNITS: Dict[str, str] = {
    "gpu.instructions": "count",
    "gpu.events": "count",
    "gpu.sim_cycles": "cycles",
    "memory.l1_hit_ratio": "ratio",
    "memory.persist_lines": "count",
    "memory.nvm_writes": "count",
    "persistency.drained_persists": "count",
    "persistency.ofence_coalesce_ratio": "ratio",
    "persistency.stalls": "count",
    "crash.recovery_cycles": "cycles",
    "exec.executed": "count",
    "exec.memo_hits": "count",
    "check.images": "count",
    "check.violations": "count",
    "check.violating_ops": "count",
    "serve.requests": "count",
    "serve.path_pb": "count",
    "serve.path_direct": "count",
    "serve.sim_p99_cycles": "cycles",
    "model.fig6_gmean.sbrp_far": "ratio",
    "model.fig6_gmean.sbrp_near": "ratio",
}

#: The paper's Figure 6 geometric means (EXPERIMENTS.md): SBRP-far over
#: epoch-far and SBRP-near over epoch-near.
PAPER_FIG6_GMEAN = {"sbrp_far": 1.14, "sbrp_near": 1.15}

_NVM_WRITES = re.compile(r"nvm\d+\.writes")
_STALL_PREFIXES = ("sbrp.", "epoch.", "gpm.")


@dataclass
class PassResult:
    """What one pass did, as measured and as checked."""

    wall_s: float = 0.0
    op_ms: List[float] = field(default_factory=list)
    #: ``time.perf_counter()`` at the end of each op, for host-speed
    #: scaling.
    op_end: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    counts: Dict[str, float] = field(default_factory=dict)
    #: One line per failed op.
    failures: List[str] = field(default_factory=list)
    #: One line per conformance op whose report holds violations: the
    #: checker's output on a model, not a failure of the op.
    findings: List[str] = field(default_factory=list)


def no_tick() -> float:
    """The default between-op hook: take no host-speed sample."""
    return 0.0


def _error_line(err: BaseException) -> str:
    return traceback.format_exception_only(type(err), err)[-1].strip()


def sim_counts(stats_dicts: Iterable[Mapping[str, float]]) -> Dict[str, float]:
    """Layer counts from ``StatsRegistry`` snapshots, summed."""
    total: Counter = Counter()
    for stats in stats_dicts:
        total.update(stats)
    hits = sum(v for k, v in total.items() if k.startswith("l1.read_hit_"))
    misses = sum(v for k, v in total.items() if k.startswith("l1.read_miss_"))
    ofences = total["sbrp.ofences"]
    return {
        "gpu.instructions": total["sm.instructions"],
        "gpu.events": total["engine.events_processed"],
        "memory.l1_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "memory.persist_lines": total["persist.lines"],
        "memory.nvm_writes": sum(
            v for k, v in total.items() if _NVM_WRITES.fullmatch(k)
        ),
        "persistency.drained_persists": total["sbrp.drained_persists"],
        "persistency.ofence_coalesce_ratio": (
            total["sbrp.ofence_coalesced"] / ofences if ofences else 0.0
        ),
        "persistency.stalls": sum(
            v
            for k, v in total.items()
            if k.startswith(_STALL_PREFIXES) and k.endswith("stalls")
        ),
    }


def _with_defaults(counts: Mapping[str, float]) -> Dict[str, float]:
    return {name: float(counts.get(name, 0.0)) for name in COUNT_UNITS}


# ----------------------------------------------------------------------
# figures
# ----------------------------------------------------------------------
class _RecordingExecutor(Executor):
    """A serial, uncached Executor that keeps every result, times every
    executed job, and collects every failure instead of the first."""

    def __init__(self, tick: Callable[[], float]) -> None:
        super().__init__(workers=1, progress=self._progress)
        self.results: List[tuple] = []
        self.op_ms: List[float] = []
        self.op_end: List[float] = []
        self.paused_s = 0.0
        self._tick = tick
        self._op_start = 0.0

    def _progress(self, event: Any) -> None:
        if event.kind == "start":
            self._op_start = time.perf_counter()
        elif event.kind == "done":
            end = time.perf_counter()
            self.op_ms.append(1000.0 * (end - self._op_start))
            self.op_end.append(end)
            self.paused_s += self._tick()

    def submit(self, jobs, allow_failures: bool = False):
        seen = len(self.failures)
        results = super().submit(jobs, allow_failures=True)
        self.results.extend(zip(jobs, results))
        if len(self.failures) > seen and not allow_failures:
            raise self.failures[seen]
        return results


class Figures:
    """Figure 6 (quick) + Figure 11 cells on the 30-SM Table 1 machine."""

    name = "figures"
    #: The figure drivers take no seeded input.
    seeded = False

    def __init__(self, seed: int, tiny: bool = False) -> None:
        del seed
        self.apps: Optional[List[str]] = ["srad"] if tiny else None
        first = (self.apps or APP_ORDER)[0]
        # The first job Figure 6 submits; run once as the warm-up op.
        self._warmup_job = ScenarioJob(
            app=first,
            config=scenario_config(ModelName.GPM, PMPlacement.FAR),
            app_params=workload(first, "quick"),
        )

    def warmup(self) -> None:
        Executor(workers=1).submit([self._warmup_job])

    def run_pass(self, tick: Callable[[], float] = no_tick) -> PassResult:
        executor = _RecordingExecutor(tick)
        tables = {}
        start = time.perf_counter()
        for figure, driver in (("6", figure6), ("11", figure11)):
            try:
                tables[figure] = driver("quick", apps=self.apps, executor=executor)
            except JobFailedError:
                pass  # every failure is in executor.failures
        wall = time.perf_counter() - start - executor.paused_s

        scenario = [
            r for job, r in executor.results
            if r is not None and job.mode == MODE_SCENARIO
        ]
        counts = sim_counts(r.stats for r in scenario)
        counts["gpu.sim_cycles"] = sum(r.cycles for r in scenario)
        counts["crash.recovery_cycles"] = sum(
            r.cycles for job, r in executor.results
            if r is not None and job.mode == MODE_RECOVERY
        )
        counts["exec.executed"] = executor.stats.executed
        counts["exec.memo_hits"] = executor.stats.memo_hits
        if "6" in tables:
            table = tables["6"]
            gmean = next(r for r in table.rows if r[table.row_key] == "gmean")
            counts["model.fig6_gmean.sbrp_far"] = gmean["SBRP-far"] / gmean["Epoch-far"]
            counts["model.fig6_gmean.sbrp_near"] = (
                gmean["SBRP-near"] / gmean["Epoch-near"]
            )
        return PassResult(
            wall_s=wall,
            op_ms=executor.op_ms,
            op_end=executor.op_end,
            attempted=len(executor.op_ms),
            failed=executor.stats.failed,
            counts=_with_defaults(counts),
            failures=[
                f"{f.job.label}: "
                f"{(f.outcome.error or f.outcome.status).strip().splitlines()[-1]}"
                for f in executor.failures
            ],
        )


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
SERVE_MODELS = (ModelName.GPM, ModelName.EPOCH, ModelName.SBRP)


def sim_p99(plan: Any, batch_cycles: List[float]) -> float:
    """Nearest-rank p99 request latency on the open-loop virtual clock:
    a batch starts at ``max(previous finish, its last arrival)``."""
    finish = 0.0
    latencies: List[float] = []
    for batch, cycles in zip(plan.batches, batch_cycles):
        finish = max(finish, float(batch.ready_time)) + cycles
        latencies.extend(finish - r.arrival for r in batch.requests)
    latencies.sort()
    return latencies[math.ceil(0.99 * len(latencies)) - 1] if latencies else 0.0


class Serve:
    """ServeKVS request streams under the three persistency models."""

    name = "serve"
    seeded = True

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.params = {
            "seed": seed,
            "mix": "update_heavy",
            "popularity": "zipfian",
            "n_requests": 128 if tiny else 1024,
            "batch_requests": 64,
            # Arrivals outpace service: the stream measures capacity.
            "rate_per_kcycle": 40.0,
            "policy": "adaptive",
        }
        # Building the app plans its request stream.
        self.apps = {
            model: build_app("serve_kvs", **self.params) for model in SERVE_MODELS
        }

    def _fresh_app(self) -> Any:
        return build_app("serve_kvs", **self.params)

    def warmup(self) -> None:
        model = SERVE_MODELS[-1]
        system = GPUSystem(small_system(model), metrics=MetricsRegistry())
        app = self._fresh_app()
        app.setup(system)
        app.serve_batch(system, 0)

    def run_pass(self, tick: Callable[[], float] = no_tick) -> PassResult:
        result = PassResult()
        stats: List[Mapping[str, float]] = []
        counts: Dict[str, float] = Counter()
        paused = 0.0
        start = time.perf_counter()
        for model, app in self.apps.items():
            config = small_system(model)
            system = GPUSystem(config, metrics=MetricsRegistry())
            app.setup(system)
            batch_cycles: List[float] = []
            for index in range(len(app.plan.batches)):
                result.attempted += 1
                op_start = time.perf_counter()
                try:
                    launches = app.serve_batch(system, index)
                except Exception as err:  # a failed op is counted, not fatal
                    result.failed += 1
                    result.failures.append(f"{model.value} batch {index}: {_error_line(err)}")
                    batch_cycles.append(0.0)
                else:
                    batch_cycles.append(sum(k.cycles for k in launches))
                result.op_end.append(time.perf_counter())
                result.op_ms.append(1000.0 * (result.op_end[-1] - op_start))
                paused += tick()
            # Closing the stream is one more checked (untimed) op.
            result.attempted += 1
            try:
                system.sync()
                app.check(system, complete=True)
                harness = CrashHarness(self._fresh_app, config)
                counts["crash.recovery_cycles"] += harness.recovery_cycles_at_worst_case()
            except Exception as err:  # a failed check is counted, not fatal
                result.failed += 1
                result.failures.append(f"{model.value} close: {_error_line(err)}")
            stats.append(system.stats.snapshot())
            paths = app.path_counts()
            counts["serve.path_pb"] += paths["pb"]
            counts["serve.path_direct"] += paths["direct"]
            counts["serve.requests"] += len(app.plan.requests)
            counts["gpu.sim_cycles"] += sum(batch_cycles)
            if model is ModelName.SBRP:
                counts["serve.sim_p99_cycles"] = sim_p99(app.plan, batch_cycles)
        result.wall_s = time.perf_counter() - start - paused
        counts.update(sim_counts(stats))
        result.counts = _with_defaults(counts)
        return result


# ----------------------------------------------------------------------
# conformance
# ----------------------------------------------------------------------
def violation_kind(violation: Mapping[str, Any]) -> str:
    """``soundness``, ``final`` ... or ``simulation_error: <Exception>``."""
    kind = str(violation["type"])
    if kind == "simulation_error":
        kind += ": " + str(violation.get("error", "")).split(":", 1)[0]
    return kind


class Conformance:
    """Directed corpus + seeded fuzzed programs through the oracle."""

    name = "conformance"
    seeded = True

    def __init__(self, seed: int, tiny: bool = False) -> None:
        corpus = corpus_programs()
        fuzzed = generate_stream(seed, 2 if tiny else 300)
        self.programs = (corpus[:2] if tiny else corpus) + fuzzed
        self.variants = list(SMOKE_VARIANTS)

    def _check(self, program: Any, model: ModelName) -> Dict[str, Any]:
        return oracle.check_program(program, model, self.variants, crash_points=48)

    def warmup(self) -> None:
        self._check(self.programs[0], STOCK_MODELS[0])

    def run_pass(self, tick: Callable[[], float] = no_tick) -> PassResult:
        result = PassResult()
        counts: Dict[str, float] = Counter()
        paused = 0.0
        start = time.perf_counter()
        for program in self.programs:
            for model in STOCK_MODELS:
                op = f"{program.name}/{model.value}"
                result.attempted += 1
                op_start = time.perf_counter()
                try:
                    report = self._check(program, model)
                except Exception as err:  # a harness failure is counted
                    result.failed += 1
                    result.failures.append(f"{op}: {_error_line(err)}")
                    continue
                finally:
                    result.op_end.append(time.perf_counter())
                    result.op_ms.append(1000.0 * (result.op_end[-1] - op_start))
                    paused += tick()
                violations = [
                    v for variant in report["variants"] for v in variant["violations"]
                ]
                counts["check.violations"] += len(violations)
                counts["check.images"] += report["coverage"]["observed_allowed"]
                counts["gpu.sim_cycles"] += report["sim_cycles"]
                if violations:
                    counts["check.violating_ops"] += 1
                    kinds = sorted({violation_kind(v) for v in violations})
                    result.findings.append(f"{op}: {', '.join(kinds)}")
        result.wall_s = time.perf_counter() - start - paused
        result.counts = _with_defaults(counts)
        return result


WORKLOADS = {w.name: w for w in (Figures, Serve, Conformance)}
