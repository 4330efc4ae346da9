"""Event engine: ordering, monotonicity, budget."""

import pytest

from repro.common.errors import SimulationError
from repro.metrics.registry import MetricsRegistry
from repro.gpu.engine import Engine


def test_events_run_in_time_order():
    engine = Engine()
    seen = []
    engine.schedule(10, lambda t: seen.append(("b", t)))
    engine.schedule(5, lambda t: seen.append(("a", t)))
    engine.run()
    assert seen == [("a", 5), ("b", 10)]


def test_same_time_fifo_order():
    engine = Engine()
    seen = []
    engine.schedule(5, lambda t: seen.append("first"))
    engine.schedule(5, lambda t: seen.append("second"))
    engine.run()
    assert seen == ["first", "second"]


def test_past_schedules_clamped_to_now():
    engine = Engine()
    seen = []

    def late(t):
        engine.schedule(t - 100, lambda t2: seen.append(t2))

    engine.schedule(50, late)
    engine.run()
    assert seen == [50]


def test_clock_never_regresses():
    engine = Engine()
    times = []
    engine.schedule(10, lambda t: times.append(engine.now))
    engine.schedule(20, lambda t: times.append(engine.now))
    engine.run()
    assert times == sorted(times)


def _stopping(engine, fn):
    """An event that runs *fn* and raises the engine's stop flag."""

    def event(t):
        fn(t)
        engine._stop = True

    return event


def test_stop_flag_stops_early():
    engine = Engine()
    seen = []
    engine.schedule(1, _stopping(engine, lambda t: seen.append(1)))
    engine.schedule(2, lambda t: seen.append(2))
    engine.run()
    assert seen == [1]
    assert engine.pending() == 1


def test_stop_flag_raised_before_run_pops_nothing_and_is_cleared():
    engine = Engine()
    seen = []
    engine.schedule(1, lambda t: seen.append(1))
    engine._stop = True
    engine.run()
    assert seen == [] and engine.events_processed == 0
    assert engine._stop is False
    engine.run()
    assert seen == [1]


def test_cycle_budget_raises():
    engine = Engine(max_cycles=100)

    def respawn(t):
        engine.schedule(t + 60, respawn)

    engine.schedule(0, respawn)
    with pytest.raises(SimulationError):
        engine.run()


def test_cycle_budget_message_reports_queue_depth():
    engine = Engine(max_cycles=100)

    def respawn(t):
        engine.schedule(t + 60, respawn)
        engine.schedule(t + 70, lambda t2: None)

    engine.schedule(0, respawn)
    with pytest.raises(SimulationError, match=r"\d+ events still queued"):
        engine.run()


def test_run_records_engine_stats():
    stats = MetricsRegistry()
    engine = Engine(stats=stats)
    engine.schedule(5, lambda t: None)
    engine.schedule(12, lambda t: None)
    engine.run()
    assert stats.get("engine.events_processed") == 2
    assert stats.get("engine.now") == 12


def test_run_without_registry_records_nothing():
    engine = Engine()
    engine.schedule(5, lambda t: None)
    assert engine.run() == 5


def test_schedule_in_relative():
    engine = Engine()
    seen = []
    engine.schedule(5, lambda t: engine.schedule_in(7, lambda t2: seen.append(t2)))
    engine.run()
    assert seen == [12]


class TestWatchdog:
    def make_spinner(self, watchdog_events):
        engine = Engine(watchdog_events=watchdog_events)

        def respawn(t):
            engine.schedule(t + 1, respawn)

        engine.schedule(0, respawn)
        return engine

    def test_no_progress_raises_livelock(self):
        from repro.common.errors import LivelockError

        engine = self.make_spinner(watchdog_events=100)
        engine.schedule(10_000_000, lambda t: None)  # stays queued
        with pytest.raises(LivelockError) as info:
            engine.run()
        err = info.value
        assert err.idle_events == 101
        assert err.queue_depths["engine.pending"] >= 1
        assert "no forward progress" in str(err)

    def test_livelock_is_a_simulation_error(self):
        """Pre-existing `except SimulationError` handlers keep working."""
        engine = self.make_spinner(watchdog_events=100)
        with pytest.raises(SimulationError):
            engine.run()

    def test_note_progress_resets_the_watchdog(self):
        engine = Engine(watchdog_events=10)
        seen = []

        def step(t):
            engine.note_progress()
            seen.append(t)
            if t < 50:
                engine.schedule(t + 1, step)

        engine.schedule(0, step)
        engine.run()
        assert len(seen) == 51  # 51 events > 10 budget, but each resets

    def test_zero_disables_the_watchdog(self):
        engine = Engine(max_cycles=10_000, watchdog_events=0)

        def respawn(t):
            if t < 500:
                engine.schedule(t + 1, respawn)

        engine.schedule(0, respawn)
        engine.run()  # 500 idle events, no watchdog

    def test_diagnostics_callback_is_included(self):
        from repro.common.errors import LivelockError

        engine = self.make_spinner(watchdog_events=50)
        engine.watchdog_diagnostics = lambda: {"pb.occupancy": 7.0}
        with pytest.raises(LivelockError) as info:
            engine.run()
        assert info.value.queue_depths["pb.occupancy"] == 7.0
        assert "pb.occupancy=7" in str(info.value)

    def test_reset_clears_idle_count(self):
        from repro.common.errors import LivelockError

        engine = self.make_spinner(watchdog_events=100)
        with pytest.raises(LivelockError):
            engine.run()
        engine.reset()
        engine.schedule(5, lambda t: None)
        assert engine.run() == 5


class TestBudgetBoundary:
    def test_event_exactly_at_max_cycles_runs(self):
        engine = Engine(max_cycles=100)
        seen = []
        engine.schedule(100, lambda t: seen.append(t))
        assert engine.run() == 100
        assert seen == [100]

    def test_event_just_past_max_cycles_raises(self):
        engine = Engine(max_cycles=100)
        engine.schedule(100.0000001, lambda t: None)
        with pytest.raises(SimulationError, match="cycle budget exceeded"):
            engine.run()

    def test_events_within_budget_run_before_the_raise(self):
        engine = Engine(max_cycles=100)
        seen = []
        engine.schedule(99, lambda t: seen.append(t))
        engine.schedule(101, lambda t: seen.append(t))
        with pytest.raises(SimulationError):
            engine.run()
        assert seen == [99]
        assert engine.now == 99


class TestStopWatchdogInterplay:
    def test_stop_checked_before_watchdog_counts(self):
        """A raised stop flag ends the run before the spinner can
        accumulate enough idle events to trip the watchdog."""
        engine = Engine(watchdog_events=10)
        seen = []

        def respawn(t):
            seen.append(t)
            engine.schedule(t + 1, respawn)
            if len(seen) >= 5:
                engine._stop = True

        engine.schedule(0, respawn)
        engine.run()
        assert len(seen) == 5
        assert engine.pending() == 1

    def test_watchdog_fires_when_stop_never_raised(self):
        from repro.common.errors import LivelockError

        engine = Engine(watchdog_events=10)

        def respawn(t):
            engine.schedule(t + 1, respawn)

        engine.schedule(0, respawn)
        with pytest.raises(LivelockError):
            engine.run()

    def test_resumed_run_keeps_idle_count(self):
        """Stopping via the flag does not reset the watchdog — idle
        events accumulate across run() calls until note_progress()."""
        from repro.common.errors import LivelockError

        engine = Engine(watchdog_events=10)
        count = [0]

        def respawn(t):
            count[0] += 1
            engine.schedule(t + 1, respawn)
            if count[0] == 6:
                engine._stop = True

        engine.schedule(0, respawn)
        engine.run()
        with pytest.raises(LivelockError):
            engine.run()
        assert count[0] <= 11  # 6 before the pause + at most 5 after


class TestReset:
    def test_reset_restores_a_reusable_engine(self):
        engine = Engine()
        engine.schedule(5, lambda t: None)
        engine.schedule(9, lambda t: None)
        assert engine.run() == 9
        engine.reset()
        assert engine.now == 0.0
        assert engine.pending() == 0
        assert engine.events_processed == 0
        seen = []
        engine.schedule(3, lambda t: seen.append(t))
        assert engine.run() == 3
        assert seen == [3]

    def test_reset_discards_pending_events(self):
        engine = Engine()
        seen = []
        engine.schedule(1, _stopping(engine, lambda t: seen.append(1)))
        engine.schedule(2, lambda t: seen.append(2))
        engine.run()
        engine.reset()
        assert engine.run() == 0.0
        assert seen == [1]

    def test_reset_restarts_fifo_tiebreak_sequence(self):
        engine = Engine()
        engine.schedule(1, lambda t: None)
        engine.run()
        engine.reset()
        seen = []
        engine.schedule(5, lambda t: seen.append("first"))
        engine.schedule(5, lambda t: seen.append("second"))
        engine.run()
        assert seen == ["first", "second"]
