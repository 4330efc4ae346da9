"""The simulator's counter registry and the fixed-bucket histogram.

:class:`MetricsRegistry` is every machine's ``stats``: counters that
always count.  :class:`MetricHistogram` backs the tracer's per-phase
persist-lifecycle histograms and the serve/soak latency percentiles.
See :mod:`repro.metrics.registry` for the observer-discipline contract.
"""

from repro.metrics.registry import (
    DEFAULT_BOUNDS,
    MetricHistogram,
    MetricsRegistry,
)

__all__ = [
    "DEFAULT_BOUNDS",
    "MetricHistogram",
    "MetricsRegistry",
]
