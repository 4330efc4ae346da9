"""The one registry every simulator component records into.

One :class:`MetricsRegistry` instance is shared by every component of a
:class:`~repro.system.GPUSystem` as its ``stats``.  It holds counters
under dotted names (``l1.read_miss_pm``, ``persist.lines`` ...) that
always count: a plain ``defaultdict(float)`` the hot paths increment
inline through ``_counters``.  The benchmark harness extracts figures
from them, tests assert on them, and they are what
``ScenarioResult.stats`` holds.

Distributions (PB occupancy, ACTR, WPQ depth, persist lifecycle
latencies) are the tracer's, on a machine built with ``trace=True``:
its counter tracks and its per-phase :class:`MetricHistogram`
instances.  The serve and soak runners compute request-latency
percentiles from a local :class:`MetricHistogram` too.

Like the tracer the registry is a pure *observer*: no method touches the
event queue or any timing state.  Everything recorded must be a
deterministic function of the simulated execution: snapshots are
byte-identical across worker counts, which CI relies on.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

#: Default histogram bucket upper bounds: powers of two spanning the
#: quantities the simulator observes (occupancies of a few entries up to
#: multi-million-cycle latencies), plus a catch-all +inf bucket.  Fixed
#: bounds keep snapshots byte-stable.
DEFAULT_BOUNDS: Tuple[float, ...] = tuple(
    float(2**exp) for exp in range(0, 25)
) + (float("inf"),)


class MetricHistogram:
    """Fixed-bucket histogram with exact count/sum/min/max.

    Bucket bounds are upper edges: a value lands in the first bucket
    whose bound is ``>=`` it.  The exact extrema let :meth:`percentile`
    clamp its interpolation to the observed range, so a single-valued
    histogram reports that value at every percentile.
    """

    __slots__ = ("bounds", "counts", "count", "sum", "min", "max")

    def __init__(self, bounds: Optional[Sequence[float]] = None) -> None:
        self.bounds: Tuple[float, ...] = (
            tuple(bounds) if bounds is not None else DEFAULT_BOUNDS
        )
        if not self.bounds or self.bounds[-1] != float("inf"):
            raise ValueError("histogram bounds must end with +inf")
        self.counts: List[int] = [0] * len(self.bounds)
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.counts[bisect_left(self.bounds, value)] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimate the *q*-quantile (``0 < q <= 1``) from the buckets.

        Linear interpolation between bucket edges, clamped to the exact
        observed [min, max] so estimates never exceed real extrema.
        Deterministic: a pure function of the recorded counts.
        """
        if self.count == 0:
            return 0.0
        target = q * self.count
        cumulative = 0
        lower = 0.0
        for bound, bucket_count in zip(self.bounds, self.counts):
            before = cumulative
            cumulative += bucket_count
            if cumulative >= target and bucket_count:
                lo = max(lower, self.min)
                hi = min(bound, self.max)
                if hi <= lo:
                    return lo
                fraction = (target - before) / bucket_count
                return lo + fraction * (hi - lo)
            lower = bound
        return self.max

    def summary(self) -> Dict[str, float]:
        """Deterministic scalar digest (what snapshots and traces export)."""
        if self.count == 0:
            return {"count": 0}
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
        }


class MetricsRegistry:
    """Counters under dotted names."""

    __slots__ = ("_counters",)

    def __init__(self) -> None:
        self._counters: Dict[str, float] = defaultdict(float)

    def add(self, name: str, amount: float = 1.0) -> None:
        """Increment counter *name* by *amount* (creating it at zero)."""
        self._counters[name] += amount

    def set(self, name: str, value: float) -> None:
        """Overwrite counter *name*."""
        self._counters[name] = value

    def get(self, name: str, default: float = 0.0) -> float:
        return self._counters.get(name, default)

    def snapshot(self) -> Dict[str, float]:
        """A detached copy of the counters."""
        return dict(self._counters)

    def __len__(self) -> int:
        return len(self._counters)

    def __repr__(self) -> str:
        return f"MetricsRegistry({len(self)} counters)"
