"""The simulator's one instrumentation registry: always-on counters and
metered histograms.

See :mod:`repro.metrics.registry` for the observer-discipline contract
(metered runs are cycle-identical to unmetered ones and record the same
counters).
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
