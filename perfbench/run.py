"""The repository benchmark: one command, three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload figures --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation:
set-up time, the wall time of one pass, per-op latency (median and the
highest percentile with at least ten ops beyond it) and the process's
peak RSS.  ``--trace 1`` reports the per-layer metrics instead: one
plain pass, one pass under span wrappers (self time per layer entry
point), one pass under cProfile (host self-time share per package), and
the simulator's exact counts, which must be identical in all three.

Human-readable lines (environment stamp, metric notes, failures) come
first; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
status is non-zero only when the harness itself breaks (for example the
simulator source is missing); failed ops are reported, not raised.
See ``perfbench/README.md`` for the workloads and every metric.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402  (imports are part of the timed set-up)
import bisect  # noqa: E402
import cProfile  # noqa: E402
import gc  # noqa: E402
import heapq  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import pstats  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional, Sequence, Tuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("figures", "serve", "conformance")
#: Set-ups per run (this process plus fresh subprocesses); the median
#: is reported.
SETUP_REPEATS = 5
#: Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: Nominal seconds of one ``HostSpeed`` kernel call.  The shared host's
#: speed drifts by tens of percent over minutes, for this process and
#: the kernel alike, so host times are reported in *reference seconds*:
#: measured seconds times ``CAL_REF_S`` over the run's median kernel
#: time.  The unscaled values are printed beside them.
CAL_REF_S = 0.1

Metric = Tuple[float, str]


class HarnessError(RuntimeError):
    """The benchmark itself cannot run (not a failed op)."""


def import_simulator() -> Tuple[Any, Any]:
    """Import the simulator from this checkout's ``src``, then the
    benchmark modules that drive it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise HarnessError(f"simulator source not found under {SRC}")
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise HarnessError(f"imported repro from {repro.__file__}, not {SRC}")
    import layers
    import workloads

    return workloads, layers


def set_up(name: str, seed: int, tiny: bool) -> Any:
    """Imports, input generation and one discarded warm-up op."""
    workloads, _ = import_simulator()
    workload = workloads.WORKLOADS[name](seed, tiny=tiny)
    workload.warmup()
    return workload


# ----------------------------------------------------------------------
# environment stamp
# ----------------------------------------------------------------------
def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git(*args: str) -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), *args],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout


def environment(args: argparse.Namespace, seeded: bool) -> Dict[str, Any]:
    commit: Optional[str] = None
    dirty: Optional[bool] = None
    if (ROOT / ".git").exists():  # a plain checkout has no history
        head = _git("rev-parse", "HEAD")
        status = _git("status", "--porcelain")
        commit = head.strip() if head else None
        dirty = bool(status.strip()) if status is not None else None
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "cpu": _cpu_model(),
        "git_commit": commit,
        "git_dirty": dirty,
        "workload": args.workload,
        "seed": args.seed if seeded else None,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
    }


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def tail(ops_ms: Sequence[float]) -> Tuple[float, float]:
    """(percentile, value): the highest ladder percentile with at least
    ten ops beyond it, nearest-rank (p50 when there are too few ops)."""
    ordered = sorted(ops_ms)
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = max(1, math.ceil(pct / 100.0 * n))
        if n - rank >= 10 or pct == TAIL_LADDER[-1]:
            return pct, ordered[rank - 1]
    raise AssertionError("unreachable")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# host-speed calibration
# ----------------------------------------------------------------------
class _Cell:
    __slots__ = ("value", "next")


class HostSpeed:
    """Samples of the host's current speed, taken between ops.

    One sample times a fixed pure-Python kernel shaped like an
    event-driven simulator's work: heap pops and pushes, and lookups
    and attribute updates spread over a table larger than the CPU
    caches.  It shares no code with the simulator, so a faster
    simulator never makes it faster.
    """

    #: Cells in the kernel's table (about 25 MB with its index).
    SIZE = 1 << 17
    STEPS = 30_000
    #: Samples this close in time to an op set its scale.
    WINDOW_S = 5.0

    def __init__(self, interval_s: float = 1.0) -> None:
        self.interval_s = interval_s
        #: (perf_counter at the end of the sample, kernel seconds).
        self.samples: List[Tuple[float, float]] = []
        self._last = -math.inf
        rng = random.Random(7)
        self._cells = [_Cell() for _ in range(self.SIZE)]
        for i, cell in enumerate(self._cells):
            cell.value = i
            cell.next = rng.randrange(self.SIZE)
        self._index = {7919 * i: cell for i, cell in enumerate(self._cells)}

    def _kernel(self) -> int:
        cells, index, size = self._cells, self._index, self.SIZE
        rng = random.Random(3)
        heap = [(rng.random(), i) for i in range(4096)]
        heapq.heapify(heap)
        total = 0
        for step in range(self.STEPS):
            when, i = heapq.heappop(heap)
            cell = cells[index[7919 * ((16 * i + 977 * step) % size)].next]
            cell.value += step
            total += cell.value & 1
            heapq.heappush(heap, (when + 1.0 + (cell.value & 7), i))
        return total

    def sample(self) -> float:
        """Record the faster of two back-to-back kernel calls: the first
        call can find its table evicted by the op just before it.  The
        collector is paused so the cost does not depend on collector
        settings the simulator may change.  Returns the seconds spent."""
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        try:
            calls = []
            for _ in range(2):
                begin = time.perf_counter()
                self._kernel()
                calls.append(time.perf_counter() - begin)
        finally:
            if enabled:
                gc.enable()
        self._last = time.perf_counter()
        self.samples.append((self._last, min(calls)))
        return self._last - start

    def tick(self) -> float:
        """Between ops: sample if ``interval_s`` has passed since the
        last sample.  Returns the seconds spent, which the caller
        leaves out of its wall time."""
        if time.perf_counter() - self._last < self.interval_s:
            return 0.0
        return self.sample()

    def scale(self, lines: List[str]) -> float:
        """Factor from measured to reference seconds, for the whole run."""
        median = statistics.median(d for _, d in self.samples)
        lines.append(
            f"host speed: calibration kernel median {median:.4f} s of "
            f"{len(self.samples)} samples; run-wide scale {CAL_REF_S / median:.4f}"
        )
        return CAL_REF_S / median

    def scales_at(self, times: Sequence[float]) -> List[float]:
        """Scale factor at each instant, from the median of the samples
        within ``WINDOW_S`` of it: a slow spell of the host is cancelled
        where it happened, while no single sample (which the op just
        before it can disturb) decides an op's scale."""
        ends = [t for t, _ in self.samples]
        scales = []
        for t in times:
            lo = bisect.bisect_left(ends, t - self.WINDOW_S)
            hi = max(bisect.bisect_right(ends, t + self.WINDOW_S), lo + 1)
            near = [d for _, d in self.samples[lo:hi]]
            scales.append(CAL_REF_S / statistics.median(near))
        return scales


def scaled_setup(setup_s: float, speed: HostSpeed) -> Tuple[float, float]:
    """(measured, reference) seconds of a set-up, scaled by a host
    speed sample taken right after it in the same process."""
    speed.sample()
    return setup_s, setup_s * CAL_REF_S / speed.samples[-1][1]


def probe_setup(args: argparse.Namespace) -> Tuple[float, float]:
    """:func:`scaled_setup` of a fresh process (imports included)."""
    cmd = [
        sys.executable, str(HERE / "run.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--setup-only",
    ]
    if args.tiny:
        cmd.append("--tiny")
    done = subprocess.run(
        cmd, cwd=str(ROOT), capture_output=True, text=True, timeout=170
    )
    if done.returncode != 0:
        raise HarnessError(f"set-up probe failed:\n{done.stderr[-2000:]}")
    return tuple(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


# ----------------------------------------------------------------------
# the two kinds of run
# ----------------------------------------------------------------------
def _consistent(passes: List[Any]) -> bool:
    """Exact simulated counts must repeat in every pass."""
    return all(p.counts == passes[0].counts for p in passes[1:])


def _report_failures(passes: List[Any], lines: List[str]) -> None:
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    lines.append(f"failed_frac = {failed}/{attempted} = {failed / attempted:.6f}")
    for failure in passes[0].failures[:20]:
        lines.append(f"  failed op: {failure}")
    findings = passes[0].findings
    if findings:
        kinds = Counter(
            kind for line in findings for kind in line.split(": ", 1)[1].split(", ")
        )
        lines.append(
            f"conformance findings: {len(findings)} of {passes[0].attempted} "
            "ops per pass report violations ("
            + ", ".join(f"{k} x{n}" for k, n in sorted(kinds.items()))
            + ")"
        )
        for finding in findings[:12]:
            lines.append(f"  finding: {finding}")


def _report_model(counts: Dict[str, float], lines: List[str]) -> None:
    from workloads import PAPER_FIG6_GMEAN

    for key, paper in PAPER_FIG6_GMEAN.items():
        value = counts[f"model.fig6_gmean.{key}"]
        if value:
            lines.append(
                f"model.fig6_gmean.{key} = {value:.4f} (paper {paper:.2f}; "
                "the model is unvalidated against hardware)"
            )


def timed_run(
    workload: Any, args: argparse.Namespace, setup_s: float, lines: List[str]
) -> Tuple[Dict[str, Metric], List[Any]]:
    """End-to-end metrics: passes until ``--seconds`` have elapsed, with
    host-speed samples between ops about once a second."""
    speed = HostSpeed()
    setups = [scaled_setup(setup_s, speed)]
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        passes.append(workload.run_pass(speed.tick))
    speed.sample()
    setups += [probe_setup(args) for _ in range(SETUP_REPEATS - 1)]
    speed.scale(lines)

    # Each op is scaled by the host speed around it, and a pass by the
    # median scale of its ops.  The tail is taken within each pass (a
    # fixed op count, so a fixed percentile), then the median over passes.
    scaled_ops: List[float] = []
    scaled_walls: List[float] = []
    tails: List[float] = []
    raw_tails: List[float] = []
    for p in passes:
        scales = speed.scales_at(p.op_end)
        ops = [ms * s for ms, s in zip(p.op_ms, scales)]
        scaled_ops.extend(ops)
        scaled_walls.append(p.wall_s * statistics.median(scales))
        pct, value = tail(ops)
        tails.append(value)
        raw_tails.append(tail(p.op_ms)[1])
    metrics = {
        "setup_s": (statistics.median(s for _, s in setups), "s"),
        "wall_s": (statistics.median(scaled_walls), "s"),
        "op_p50_ms": (statistics.median(scaled_ops), "ms"),
        "op_tail_ms": (statistics.median(tails), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    raw = {
        "setup_s": statistics.median(s for s, _ in setups),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "op_p50_ms": statistics.median(ms for p in passes for ms in p.op_ms),
        "op_tail_ms": statistics.median(raw_tails),
    }
    lines.append("unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    lines.append(
        "setup_s: median of " + ", ".join(f"{s:.4f}" for _, s in setups)
    )
    lines.append(f"wall_s: median of {len(passes)} passes")
    lines.append(
        f"op_tail_ms: p{pct:g} of each pass's {len(passes[0].op_ms)} ops, "
        f"median of {len(passes)} passes ({len(scaled_ops)} ops in all)"
    )
    return metrics, passes


def traced_run(
    workload: Any, lines: List[str]
) -> Tuple[Dict[str, Metric], List[Any]]:
    """Per-layer metrics from a plain, a span-traced and a profiled pass."""
    import layers
    from workloads import COUNT_UNITS

    # Host speed is sampled during the plain pass only, so no sample
    # lands inside a span or the profile.
    speed = HostSpeed()
    plain = workload.run_pass(speed.tick)
    speed.sample()
    with layers.SpanTracer() as spans:
        traced = workload.run_pass()
    speed.sample()
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        profiled = workload.run_pass()
    finally:
        profiler.disable()
    shares = layers.host_shares(pstats.Stats(profiler).stats)
    scale = speed.scale(lines)

    metrics: Dict[str, Metric] = {
        name: (value * scale if unit in ("s", "ns") else value, unit)
        for name, (value, unit) in spans.metrics().items()
    }
    for layer, share in shares.items():
        metrics[f"host_share.{layer}"] = (share, "fraction")
    for name, unit in COUNT_UNITS.items():
        metrics[name] = (plain.counts[name], unit)
    metrics["trace.overhead_frac"] = (traced.wall_s / plain.wall_s - 1.0, "fraction")
    lines.append(
        f"pass wall: plain {plain.wall_s:.3f} s, traced {traced.wall_s:.3f} s, "
        f"profiled {profiled.wall_s:.3f} s"
    )
    return metrics, [plain, traced, profiled]


def measure(args: argparse.Namespace, workload: Any, setup_s: float) -> Tuple[Dict[str, Any], List[str]]:
    """Run the measurement; return (result document, text lines)."""
    lines = ["env " + json.dumps(environment(args, workload.seeded), sort_keys=True)]
    if args.trace:
        metrics, passes = traced_run(workload, lines)
    else:
        metrics, passes = timed_run(workload, args, setup_s, lines)
    consistent = _consistent(passes)
    if not consistent:
        lines.append("exact simulated counts differ between passes")
    _report_failures(passes, lines)
    _report_model(passes[0].counts, lines)
    for name, (value, unit) in metrics.items():
        lines.append(f"{name} = {value:.6g} {unit}")
    failed = sum(p.failed for p in passes)
    doc = {
        "correct": consistent and failed == 0,
        "attempted": sum(p.attempted for p in passes),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    return doc, lines


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python3 perfbench/run.py",
        description="Benchmark the simulator end to end and per layer.",
    )
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--seconds", type=float, default=20.0,
        help="measure passes until this much time has elapsed (at least one)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="tiny inputs, for the benchmark's own tests",
    )
    parser.add_argument(
        "--setup-only", action="store_true",
        help="set up, print the set-up time as JSON and exit",
    )
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    try:
        workload = set_up(args.workload, args.seed, args.tiny)
        setup_s = time.perf_counter() - _T0
        if args.setup_only:
            print(json.dumps({"setup_s": scaled_setup(setup_s, HostSpeed())}))
            return 0
        doc, lines = measure(args, workload, setup_s)
    except Exception:  # the harness broke: report it, print no result
        traceback.print_exc()
        return 2
    print("\n".join(lines))
    print(json.dumps(doc, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
