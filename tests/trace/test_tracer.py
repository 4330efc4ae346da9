"""Tracer unit semantics: no-op when disabled, exact accounting."""

import copy

import pytest

from repro.metrics.registry import MetricHistogram
from repro.trace import NULL_TRACER, TraceConfig, Tracer, chrome_trace, render_report


def test_disabled_tracer_records_nothing():
    tracer = Tracer(TraceConfig(enabled=False))
    tracer.span("sm0", "xfer", 0, 10)
    tracer.instant("sm0", "mark", 5)
    tracer.counter("sm0", "pb", 5, 3.0)
    tracer.warp_begin("sm0.w00", 0)
    tracer.warp_phase("sm0.w00", "ld", 4)
    tracer.warp_end("sm0.w00", 9)
    tracer.persist_store(0, 128, 1)
    tracer.persist_delay(0, 128, "fsm")
    tracer.persist_flush(0, 128, 2, 3, 4)
    assert tracer.event_count() == 0
    assert tracer.stall_totals == {}
    assert tracer.persist_count == 0
    assert tracer.delay_counts == {}


def test_null_tracer_is_shared_and_disabled():
    assert NULL_TRACER.enabled is False
    NULL_TRACER.span("x", "y", 0, 1)
    assert NULL_TRACER.event_count() == 0


def test_invalid_capacity_rejected():
    with pytest.raises(ValueError):
        Tracer(TraceConfig(capacity=0))


def test_warp_residency_attribution_is_exact():
    tracer = Tracer(TraceConfig())
    tracer.warp_begin("sm0.w00", 10)
    tracer.warp_phase("sm0.w00", "ld", 12)     # sched: 2
    tracer.warp_phase("sm0.w00", "st", 20)     # ld: 8
    tracer.warp_phase("sm0.w00", "sched", 25)  # st: 5
    tracer.warp_end("sm0.w00", 30)             # sched: 5
    cats = tracer.stall_totals["sm0.w00"]
    assert cats == {"sched": 7.0, "ld": 8.0, "st": 5.0}
    assert sum(cats.values()) == tracer.warp_active["sm0.w00"] == 20.0
    assert tracer.warp_launches["sm0.w00"] == 1


def test_warp_reuse_accumulates_residency():
    tracer = Tracer(TraceConfig())
    for start in (0, 100):
        tracer.warp_begin("sm0.w00", start)
        tracer.warp_phase("sm0.w00", "compute", start + 1)
        tracer.warp_end("sm0.w00", start + 11)
    assert tracer.warp_active["sm0.w00"] == 22.0
    assert tracer.warp_launches["sm0.w00"] == 2
    assert tracer.warp_span["sm0.w00"] == [0, 111]


def test_persist_lifecycle_orders_and_coalesces():
    tracer = Tracer(TraceConfig())
    tracer.persist_store(0, 256, 5)
    tracer.persist_store(0, 256, 7)   # same line: coalesced
    tracer.persist_store(1, 256, 8)   # other SM: distinct persist
    tracer.persist_delay(0, 256, "window")
    tracer.persist_flush(0, 256, 20, 50, 60)
    assert tracer.persist_count == 2
    assert tracer.coalesced_stores == 1
    record = tracer.persists[0]
    assert record.stores == 2
    assert record.t_store <= record.t_drain <= record.t_accept <= record.t_ack
    assert record.delays == {"window": 1}
    assert record.phase_latencies() == {"buffer": 15, "drain": 30, "ack": 10}
    assert tracer.delay_counts == {"window": 1}


def test_persist_flush_without_store_still_records():
    tracer = Tracer(TraceConfig())
    tracer.persist_flush(0, 512, 10, 30, 40)
    assert tracer.persist_count == 1
    assert tracer.persists[0].t_store == 10


def test_span_totals_survive_ring_drop():
    tracer = Tracer(TraceConfig(capacity=2))
    for i in range(10):
        tracer.span("nvm0", "write", i * 10, i * 10 + 4)
    assert len(tracer.spans) == 2
    count, busy = tracer.span_totals[("nvm0", "write")]
    assert count == 10 and busy == 40


def _flushed_tracer():
    """Three persists whose phase latencies are buffer 2/3/4, drain
    3/100/3 and ack 4/7/1 cycles."""
    tracer = Tracer(TraceConfig())
    for i, (drain, accept, ack) in enumerate([(2, 5, 9), (3, 103, 110), (4, 7, 8)]):
        tracer.persist_store(0, 128 * i, 0)
        tracer.persist_flush(0, 128 * i, drain, accept, ack)
    return tracer


def test_phase_histograms_are_metric_histograms():
    tracer = _flushed_tracer()
    drain = tracer.phase_hist["drain"]
    assert isinstance(drain, MetricHistogram)
    assert drain.count == 3
    assert drain.max == 100
    assert drain.mean == pytest.approx(106 / 3)
    phases = chrome_trace(tracer)["otherData"]["lifecycle"]["phases"]
    assert phases["drain"] == drain.summary()


def test_report_renders_old_and_new_phase_formats_alike():
    """Traces written before the phases moved to MetricHistogram carry
    count/total/max/mean/buckets; the report reads the same lines."""
    new = chrome_trace(_flushed_tracer(), cycles=200.0)
    old = copy.deepcopy(new)
    old["otherData"]["lifecycle"]["phases"] = {
        "buffer": {"count": 3, "total": 9.0, "max": 4.0, "mean": 3.0,
                   "buckets": {"2": 2, "4": 1}},
        "drain": {"count": 3, "total": 106.0, "max": 100.0, "mean": 106.0 / 3,
                  "buckets": {"2": 2, "64": 1}},
        "ack": {"count": 3, "total": 12.0, "max": 7.0, "mean": 4.0,
                "buckets": {"1": 1, "4": 2}},
    }
    text = render_report(new)
    assert "drain->accept (flush to durability): n=3 mean=35.3 max=100 cycles" in text
    assert render_report(old) == text
