"""Exec-layer metrics: outcome counters, error classes, pool retries."""

import os

from repro.common.config import ModelName, PMPlacement, small_system
from repro.exec import Executor, ScenarioJob
from repro.exec.executor import error_class
from repro.exec.pool import (
    STATUS_CRASHED,
    STATUS_ERROR,
    JobOutcome,
    WorkerPool,
)
from repro.metrics import MetricsRegistry

_CFG = small_system(ModelName.SBRP, PMPlacement.NEAR)


def _bad_job():
    # Unknown app name: execute() raises KeyError inside the worker.
    return ScenarioJob(
        app="reduction", config=_CFG, app_params={"no_such_param": 1}
    )


class TestErrorClass:
    def test_parses_plain_exception(self):
        outcome = JobOutcome(
            index=0,
            status=STATUS_ERROR,
            error=(
                "Traceback (most recent call last):\n"
                '  File "x.py", line 1, in f\n'
                "ValueError: bad\n"
            ),
        )
        assert error_class(outcome) == "ValueError"

    def test_strips_module_path(self):
        outcome = JobOutcome(
            index=0,
            status=STATUS_ERROR,
            error="repro.common.errors.ConfigError: nope\n",
        )
        assert error_class(outcome) == "ConfigError"

    def test_non_error_statuses_have_no_class(self):
        outcome = JobOutcome(
            index=0, status=STATUS_CRASHED, error="worker died (exitcode=-9)"
        )
        assert error_class(outcome) is None


class TestExecutorFailureMetrics:
    def test_error_class_counter(self):
        registry = MetricsRegistry()
        ex = Executor(workers=1, metrics=registry)
        ex.submit([_bad_job()], allow_failures=True)
        counters = registry.snapshot()
        assert counters["exec.failed"] == 1
        assert counters["exec.outcome.error"] == 1
        assert counters["exec.error.TypeError"] == 1

    def test_error_class_matches_across_backends(self):
        serial = MetricsRegistry()
        pooled = MetricsRegistry()
        Executor(workers=1, metrics=serial).submit(
            [_bad_job()], allow_failures=True
        )
        Executor(workers=2, metrics=pooled).submit(
            [_bad_job()], allow_failures=True
        )
        assert serial.snapshot() == pooled.snapshot()


def _crash_once(payload):
    marker = payload["marker"]
    if not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write("attempted")
        os._exit(13)  # simulate a segfault/OOM kill
    return "recovered"


class TestPoolRetryMetrics:
    def test_retry_counts_and_status(self, tmp_path):
        registry = MetricsRegistry()
        pool = WorkerPool(workers=1, retries=2, backoff=0.01, metrics=registry)
        marker = str(tmp_path / "attempted")
        outcomes = pool.run([{"marker": marker}], _crash_once)
        assert outcomes[0].ok
        assert outcomes[0].attempts == 2
        counters = registry.snapshot()
        assert counters["exec.pool.retry"] == 1
        assert counters["exec.pool.retry_status.crashed"] == 1

    def test_clean_run_emits_no_pool_metrics(self):
        registry = MetricsRegistry()
        pool = WorkerPool(workers=2, metrics=registry)
        outcomes = pool.run([1, 2], lambda x: x * 2)
        assert [o.value for o in outcomes] == [2, 4]
        assert registry.snapshot() == {}

    def test_executor_counts_retries_from_attempts(self, monkeypatch):
        # Executor-level exec.retries derives from JobOutcome.attempts,
        # which both backends report; fake a pool outcome that needed a
        # second attempt before succeeding.
        registry = MetricsRegistry()
        ex = Executor(workers=2, metrics=registry)
        job = ScenarioJob(
            app="reduction", config=_CFG, app_params={"blocks": 1}
        )
        reference = Executor(workers=1).run(job)

        def fake_pool(jobs, indices):
            return {
                indices[0]: JobOutcome(
                    index=indices[0],
                    status="ok",
                    value=reference.to_json(),
                    attempts=2,
                )
            }

        monkeypatch.setattr(ex, "_run_pool", fake_pool)
        ex.submit([job])
        assert registry.get("exec.retries") == 1
        assert registry.get("exec.outcome.ok") == 1
