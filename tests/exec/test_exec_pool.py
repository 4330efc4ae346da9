"""WorkerPool failure paths: raises, timeouts, killed workers.

Runner functions live at module level so they stay importable under any
multiprocessing start method.
"""

import os
import signal
import time

import pytest

from repro.exec import WorkerPool
from repro.exec.pool import (
    STATUS_CRASHED,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    PoolEvent,
)


def _double(payload):
    return {"value": payload["x"] * 2}


def _sleepy(payload):
    time.sleep(payload.get("sleep", 0.0))
    return {"value": payload["x"]}


def _explode(payload):
    if payload.get("boom"):
        raise ValueError("kaboom from worker")
    return {"value": payload["x"]}


def _hang(payload):
    time.sleep(60.0)
    return {"value": "never"}


def _log_and_die(payload):
    # The log survives the worker's death: one line per process started.
    with open(payload["log"], "a") as fh:
        fh.write("started\n")
    os.kill(os.getpid(), signal.SIGKILL)


class TestHappyPath:
    def test_results_align_with_submission_order(self):
        pool = WorkerPool(workers=3)
        outcomes = pool.run([{"x": i} for i in range(6)], _double)
        assert [o.index for o in outcomes] == list(range(6))
        assert [o.value["value"] for o in outcomes] == [0, 2, 4, 6, 8, 10]
        assert all(o.ok and o.status == STATUS_OK for o in outcomes)

    def test_order_deterministic_despite_completion_order(self):
        # Job 0 sleeps longest, so it finishes last but still comes
        # back first.
        payloads = [
            {"x": 0, "sleep": 0.4},
            {"x": 1, "sleep": 0.0},
            {"x": 2, "sleep": 0.1},
        ]
        outcomes = WorkerPool(workers=3).run(payloads, _sleepy)
        assert [o.value["value"] for o in outcomes] == [0, 1, 2]

    def test_more_jobs_than_workers(self):
        outcomes = WorkerPool(workers=2).run(
            [{"x": i} for i in range(7)], _double
        )
        assert len(outcomes) == 7
        assert all(o.ok for o in outcomes)


class TestFailurePaths:
    def test_raising_job_reports_original_traceback(self):
        payloads = [{"x": 1}, {"x": 2, "boom": True}, {"x": 3}]
        outcomes = WorkerPool(workers=2).run(payloads, _explode)
        # The sweep completed: healthy jobs unaffected.
        assert outcomes[0].ok and outcomes[2].ok
        failed = outcomes[1]
        assert failed.status == STATUS_ERROR
        assert "ValueError" in failed.error
        assert "kaboom from worker" in failed.error
        assert "Traceback" in failed.error

    def test_timeout_kills_hung_job(self):
        pool = WorkerPool(workers=2, timeout=0.5)
        payloads = [{"x": 1}, {"hang": True}]
        outcomes = pool.run(payloads, _mixed_hang)
        assert outcomes[0].ok
        assert outcomes[1].status == STATUS_TIMEOUT
        assert "timeout" in outcomes[1].error

    def test_killed_worker_marks_job_crashed_without_killing_sweep(self):
        payloads = [{"x": 1}, {"die": True}, {"x": 3}]
        outcomes = WorkerPool(workers=2).run(payloads, _mixed_die)
        assert outcomes[0].ok and outcomes[2].ok
        assert outcomes[1].status == STATUS_CRASHED
        assert "worker" in outcomes[1].error

    def test_crash_fails_at_once(self, tmp_path):
        log = tmp_path / "starts.log"
        events = []
        pool = WorkerPool(workers=2, progress=events.append)
        outcomes = pool.run([{"log": str(log)}], _log_and_die)
        assert [o.status for o in outcomes] == [STATUS_CRASHED]
        assert log.read_text() == "started\n"  # no second process
        assert [e.kind for e in events] == ["start", "done"]


def _mixed_hang(payload):
    if payload.get("hang"):
        time.sleep(60.0)
    return {"value": payload.get("x")}


def _mixed_die(payload):
    if payload.get("die"):
        os.kill(os.getpid(), signal.SIGKILL)
    return {"value": payload.get("x")}


class TestProgress:
    def test_progress_events_cover_lifecycle(self):
        events = []
        pool = WorkerPool(workers=2, progress=events.append)
        pool.run([{"x": i} for i in range(3)], _double, labels=["a", "b", "c"])
        kinds = [e.kind for e in events]
        assert kinds.count("start") == 3
        assert kinds.count("done") == 3
        done = [e for e in events if e.kind == "done"]
        assert {e.label for e in done} == {"a", "b", "c"}
        assert all(isinstance(e, PoolEvent) for e in events)
        assert max(e.done for e in done) == 3


class TestValidation:
    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            WorkerPool(workers=0)

    def test_empty_payload_list(self):
        assert WorkerPool(workers=2).run([], _double) == []
