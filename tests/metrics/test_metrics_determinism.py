"""The observability invariants CI relies on.

* a run's counters are a deterministic function of the simulation:
  a repeated run records the same ones, and passing a registry with
  ``metrics=`` changes neither timing nor what it counts;
* there is one counter set: the sim and serve runners report exactly
  the counters of their machine's registry, and a registry shared by
  several machines sums their counts;
* the exec layer's one counter set, :class:`ExecStats`, is **identical**
  across worker counts, failures included.
"""

import pytest

from repro import GPUSystem, ModelName, PMPlacement, small_system
from repro.apps import build_app
from repro.bench.runner import run_scenario
from repro.exec import ExecStats, Executor, ScenarioJob
from repro.metrics import MetricsRegistry
from repro.perfcore.grid import SERVE_PARAMS, SIM_PARAMS
from repro.serve.runner import run_serve_scenario

_PARAMS = {"blocks": 2, "per_thread": 1}

#: Counters the engine overwrites at the end of each run rather than
#: adding to.
_SET_COUNTERS = {"engine.events_processed", "engine.now"}


def _run(model, metrics=None):
    system = GPUSystem(small_system(model), metrics=metrics)
    app = build_app("reduction", **_PARAMS)
    app.setup(system)
    app.run(system)
    system.sync()
    return system


def test_run_repeats_identically():
    first = _run(ModelName.SBRP)
    second = _run(ModelName.SBRP)
    assert first.now == second.now
    assert first.stats.snapshot() == second.stats.snapshot()


class TestCycleIdentity:
    def test_metrics_do_not_change_timing(self, model):
        registry = MetricsRegistry()
        plain = _run(model)
        passed = _run(model, metrics=registry)
        assert passed.stats is registry
        assert passed.now == plain.now
        assert passed.total_cycles() == plain.total_cycles()
        assert registry.snapshot() == plain.stats.snapshot()


class TestOneCounterSet:
    """The runners report the counters of their machine's registry."""

    def test_sim_stats_are_the_machine_counters(self, model):
        config = small_system(model)
        registry = MetricsRegistry()
        system = GPUSystem(config, metrics=registry)
        app = build_app("gpkvs", **SIM_PARAMS["gpkvs"])
        app.setup(system)
        outcome = app.run(system)
        system.sync()

        result = run_scenario("gpkvs", config, SIM_PARAMS["gpkvs"])
        assert result.cycles == outcome.cycles
        assert result.stats == registry.snapshot()
        assert result.metrics is None

    def test_serve_metrics_are_the_machine_counters(self, model, monkeypatch):
        import repro.serve.runner as runner

        systems = []
        system_cls = runner.GPUSystem

        def recording(config, **kwargs):
            systems.append(system_cls(config, **kwargs))
            return systems[-1]

        monkeypatch.setattr(runner, "GPUSystem", recording)
        result = run_serve_scenario(
            "serve_kvs", small_system(model), SERVE_PARAMS,
            measure_recovery=False,
        )
        (system,) = systems
        assert result.metrics == system.stats.snapshot()
        assert result.metrics["persist.lines"] > 0
        assert result.metrics["engine.now"] == system.now

    def test_shared_registry_sums_counters(self, model):
        single = _run(model).stats.snapshot()
        shared = MetricsRegistry()
        first = _run(model, metrics=shared)
        second = _run(model, metrics=shared)
        assert first.stats is second.stats is shared
        summed = shared.snapshot()
        assert set(summed) == set(single)
        for name, value in single.items():
            expected = value if name in _SET_COUNTERS else 2 * value
            assert summed[name] == pytest.approx(expected), name


class TestSimulationMetricsContent:
    def test_core_instruments_populated(self):
        system = _run(ModelName.SBRP)
        counters = system.stats.snapshot()
        assert counters["persist.lines"] > 0
        assert counters["sbrp.drained_persists"] > 0
        assert counters["engine.now"] == system.now
        assert "l1.write_miss_pm" in counters


def _jobs():
    config = small_system(ModelName.SBRP, PMPlacement.NEAR)
    config_far = small_system(ModelName.SBRP, PMPlacement.FAR)
    job = ScenarioJob(app="reduction", config=config, app_params=_PARAMS)
    other = ScenarioJob(app="reduction", config=config_far, app_params=_PARAMS)
    return [job, other, job]  # duplicate exercises the memo counters


def _bad_job():
    # An unknown app parameter: the app's constructor raises TypeError
    # inside the worker.
    config = small_system(ModelName.SBRP, PMPlacement.NEAR)
    return ScenarioJob(
        app="reduction", config=config, app_params={"no_such_param": 1}
    )


class TestWorkerCountIdentity:
    def test_stats_identical_serial_vs_pool(self):
        serial = Executor(workers=1)
        pooled = Executor(workers=2)
        serial.submit(_jobs())
        pooled.submit(_jobs())
        assert serial.stats == pooled.stats == ExecStats(
            submitted=3, memo_hits=1, executed=2
        )

    def test_failure_identical_serial_vs_pool(self):
        serial = Executor(workers=1)
        pooled = Executor(workers=2)
        for executor in (serial, pooled):
            assert executor.submit([_bad_job()], allow_failures=True) == [None]
            (failure,) = executor.failures
            assert failure.outcome.status == "error"
            assert "TypeError" in failure.outcome.error
        assert serial.stats == pooled.stats == ExecStats(submitted=1, failed=1)
