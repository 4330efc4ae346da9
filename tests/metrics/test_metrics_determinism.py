"""The observability invariants CI relies on.

* metered runs are **cycle-identical** to unmetered runs and record
  **the same counters** — the registry is a pure observer whose only
  metered extra is its histograms;
* the exec layer's one counter set, :class:`ExecStats`, is **identical**
  across worker counts, failures included.
"""

from repro import GPUSystem, ModelName, PMPlacement, small_system
from repro.apps import build_app
from repro.exec import ExecStats, Executor, ScenarioJob
from repro.perfcore.grid import SERVE_PARAMS, SIM_PARAMS
from repro.serve.runner import run_serve_scenario

_PARAMS = {"blocks": 2, "per_thread": 1}


def _run(model, metrics):
    system = GPUSystem(small_system(model), metrics=metrics)
    app = build_app("reduction", **_PARAMS)
    app.setup(system)
    app.run(system)
    system.sync()
    return system


class TestCycleIdentity:
    def test_metrics_do_not_change_timing(self, model):
        plain = _run(model, metrics=False)
        metered = _run(model, metrics=True)
        assert metered.now == plain.now
        assert dict(metered.stats.snapshot()) == dict(plain.stats.snapshot())
        assert plain.stats.histograms() == {}
        assert metered.stats.histograms()

    def test_metered_run_repeats_identically(self):
        first = _run(ModelName.SBRP, metrics=True)
        second = _run(ModelName.SBRP, metrics=True)
        assert first.metrics_snapshot() == second.metrics_snapshot()


class TestOneCounterSet:
    """Metering adds histograms only: the metered snapshot's counters
    are exactly the unmetered run's stats, and timing does not move."""

    def test_sim_counters_match_unmetered_stats(self, model):
        def run(metrics):
            system = GPUSystem(small_system(model), metrics=metrics)
            app = build_app("gpkvs", **SIM_PARAMS["gpkvs"])
            app.setup(system)
            app.run(system)
            system.sync()
            return system

        plain, metered = run(False), run(True)
        assert metered.now == plain.now
        assert metered.total_cycles() == plain.total_cycles()
        assert metered.metrics_snapshot()["counters"] == plain.stats.snapshot()

    def test_serve_counters_match_unmetered_stats(self, model, monkeypatch):
        import repro.serve.runner as runner

        systems = []
        system_cls = runner.GPUSystem

        def unmetered(config, metrics=None, **kwargs):
            # The runner's registry keeps pricing latencies; the system
            # gets a default (unmetered) one instead.
            systems.append(system_cls(config, **kwargs))
            return systems[-1]

        def run():
            return run_serve_scenario(
                "serve_kvs", small_system(model), SERVE_PARAMS,
                measure_recovery=False,
            )

        with_metrics = run()
        monkeypatch.setattr(runner, "GPUSystem", unmetered)
        without = run()
        assert with_metrics.cycles == without.cycles
        assert with_metrics.stats == without.stats
        assert with_metrics.metrics["counters"] == systems[0].stats.snapshot()
        assert not systems[0].stats.metered


class TestSimulationMetricsContent:
    def test_core_instruments_populated(self):
        system = _run(ModelName.SBRP, metrics=True)
        counters = system.metrics_snapshot()["counters"]
        assert counters["persist.lines"] > 0
        assert counters["sbrp.drained_persists"] > 0
        assert counters["engine.now"] == system.now
        hists = system.stats.histograms()
        assert hists["sm.active_warps"].count > 0
        assert hists["sbrp.pb_occupancy"].count > 0
        assert hists["persist.accept_latency"].count > 0

    def test_epoch_barrier_histogram(self):
        system = _run(ModelName.EPOCH, metrics=True)
        hist = system.stats.histograms()["epoch.barrier_wait"]
        assert hist.count == system.stat("epoch.barriers")
        assert hist.count > 0

    def test_snapshot_facade_merges_stats(self):
        system = _run(ModelName.SBRP, metrics=True)
        snap = system.metrics_snapshot()
        # One registry: the snapshot's counters are the system's stats.
        assert set(snap) == {"counters", "histograms"}
        assert snap["counters"] == system.stats.snapshot()
        assert "l1.write_miss_pm" in snap["counters"]


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
