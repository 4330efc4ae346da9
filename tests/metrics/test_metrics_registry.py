"""MetricsRegistry / MetricHistogram unit behaviour."""

import pytest

from repro.metrics import DEFAULT_BOUNDS, MetricHistogram, MetricsRegistry


class TestCounters:
    def test_inc_creates_and_accumulates(self):
        metrics = MetricsRegistry()
        metrics.add("a.b")
        metrics.add("a.b", 2.5)
        assert metrics.get("a.b") == 3.5

    def test_missing_counter_default(self):
        assert MetricsRegistry().get("nope", 7.0) == 7.0

    def test_counters_copy_is_detached(self):
        metrics = MetricsRegistry()
        metrics.add("x")
        snap = metrics.snapshot()
        snap["x"] = 99.0
        assert metrics.get("x") == 1.0

    def test_add_and_get(self):
        stats = MetricsRegistry()
        stats.add("a.b")
        stats.add("a.b", 2)
        assert stats.get("a.b") == 3
        assert stats.get("missing", 9) == 9

    def test_set_overwrites(self):
        stats = MetricsRegistry()
        stats.add("x", 5)
        stats.set("x", 3)
        assert stats.get("x") == 3

    def test_snapshot_is_immutable_copy(self):
        stats = MetricsRegistry()
        stats.add("a")
        snap = stats.snapshot()
        stats.add("a")
        assert snap["a"] == 1


def test_empty_registry_is_falsy_but_must_not_be_replaced():
    """Regression: components must use `is not None`, never `or`, when
    accepting a shared registry - an empty one is falsy."""
    from repro.memory.cache import L1Cache

    shared = MetricsRegistry()
    assert not shared
    cache = L1Cache("l1", 1024, 128, 2, shared)
    assert cache.stats is shared


class TestSnapshot:
    def test_empty_registry_snapshot(self):
        assert MetricsRegistry().snapshot() == {}


@pytest.mark.parametrize("metrics", [True, False, {}])
def test_system_refuses_anything_but_a_registry(metrics):
    """The bool form is gone: distributions come from the tracer."""
    from repro import GPUSystem, ModelName, small_system
    from repro.common.errors import ConfigError

    with pytest.raises(ConfigError, match="trace=True"):
        GPUSystem(small_system(ModelName.SBRP), metrics=metrics)


class TestHistogram:
    def test_default_bounds_end_in_inf(self):
        assert DEFAULT_BOUNDS[-1] == float("inf")

    def test_bounds_must_end_in_inf(self):
        with pytest.raises(ValueError):
            MetricHistogram(bounds=(1.0, 2.0))

    def test_exact_count_sum_min_max(self):
        hist = MetricHistogram()
        for value in (3.0, 1.0, 10.0):
            hist.observe(value)
        assert hist.count == 3
        assert hist.sum == 14.0
        assert hist.min == 1.0
        assert hist.max == 10.0
        assert hist.mean == pytest.approx(14.0 / 3)

    def test_values_land_in_first_bucket_at_or_above(self):
        hist = MetricHistogram(bounds=(1.0, 4.0, float("inf")))
        for value in (0.5, 1.0, 3.0, 4.0, 100.0):
            hist.observe(value)
        assert hist.counts == [2, 2, 1]

    def test_single_value_percentiles_are_that_value(self):
        hist = MetricHistogram()
        hist.observe(5.0)
        for q in (0.5, 0.95, 0.99):
            assert hist.percentile(q) == pytest.approx(5.0)

    def test_percentiles_monotone_and_within_range(self):
        hist = MetricHistogram()
        for value in range(1, 101):
            hist.observe(float(value))
        p50, p95, p99 = (
            hist.percentile(0.50),
            hist.percentile(0.95),
            hist.percentile(0.99),
        )
        assert 1.0 <= p50 <= p95 <= p99 <= 100.0
        assert p50 == pytest.approx(50.0, rel=0.35)

    def test_empty_summary(self):
        assert MetricHistogram().summary() == {"count": 0}

    def test_summary_keys(self):
        hist = MetricHistogram()
        hist.observe(2.0)
        assert set(hist.summary()) == {
            "count", "sum", "min", "max", "mean", "p50", "p95", "p99",
        }
