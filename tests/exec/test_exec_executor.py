"""Executor semantics: dedupe, memo identity, parallel parity, failures."""

import dataclasses
import os
import signal

import pytest

from repro.bench.runner import RECOVERY_STAT, ScenarioResult
from repro.common.config import ModelName, PMPlacement, small_system
from repro.exec import (
    MODE_RECOVERY,
    Executor,
    JobFailedError,
    ScenarioJob,
    execute_job_payload,
)
from repro.exec import executor as executor_module

#: Tiny configs keep every executor test sub-second per simulation.
_CFG = small_system(ModelName.SBRP, PMPlacement.NEAR)
_CFG_FAR = small_system(ModelName.SBRP, PMPlacement.FAR)


def _job(app="reduction", config=_CFG, **params) -> ScenarioJob:
    params = params or {"blocks": 2, "per_thread": 1}
    return ScenarioJob(app=app, config=config, app_params=params)


class TestDedupe:
    def test_duplicate_jobs_execute_once(self):
        ex = Executor(workers=1)
        job = _job()
        results = ex.submit([job, job, dataclasses.replace(job)])
        assert ex.stats.executed == 1
        assert ex.stats.memo_hits == 2
        assert results[0] == results[1] == results[2]

    def test_memo_spans_submit_calls(self):
        ex = Executor(workers=1)
        job = _job()
        first = ex.submit([job])[0]
        second = ex.submit([job])[0]
        assert ex.stats.executed == 1
        assert first is second

    def test_distinct_jobs_all_execute(self):
        ex = Executor(workers=1)
        results = ex.submit([_job(), _job(config=_CFG_FAR)])
        assert ex.stats.executed == 2
        assert results[0].cycles != results[1].cycles


class TestTracedMemo:
    def test_traced_job_is_not_answered_by_an_untraced_run(self, tmp_path):
        job = _job()
        traced = dataclasses.replace(job, trace_dir=str(tmp_path))
        ex = Executor(workers=1)
        ex.run(job)
        assert not any(tmp_path.iterdir())
        ex.run(traced)
        assert ex.stats.executed == 2 and ex.stats.memo_hits == 0
        assert [p.suffix for p in tmp_path.iterdir()] == [".json"]

    def test_equal_traced_jobs_share_one_run(self, tmp_path):
        traced = dataclasses.replace(_job(), trace_dir=str(tmp_path))
        ex = Executor(workers=1)
        first = ex.run(traced)
        assert ex.run(dataclasses.replace(traced)) is first
        assert ex.stats.executed == 1 and ex.stats.memo_hits == 1


class TestRecoveryTwin:
    """One recovering run answers its cell's recovery and plain jobs."""

    def test_recovery_job_is_answered_by_a_memoised_twin(self):
        plain, recovery = _job(), dataclasses.replace(_job(), mode=MODE_RECOVERY)
        ex = Executor(workers=1)
        twin = ex.run(recovery.twin)
        got = ex.run(recovery)
        assert ex.stats.executed == 1 and ex.stats.memo_hits == 1
        cycles = twin.stat(RECOVERY_STAT)
        assert cycles > 0
        assert got == ScenarioResult(
            app="reduction", label=_CFG.label, cycles=cycles,
            stats={RECOVERY_STAT: cycles},
        )
        assert got == recovery.execute()
        assert twin.cycles == plain.execute().cycles

    def test_recovery_job_runs_its_twin_once(self):
        recovery = dataclasses.replace(_job(), mode=MODE_RECOVERY)
        ex = Executor(workers=1)
        first = ex.submit([recovery, recovery])
        assert ex.stats.executed == 1 and ex.stats.memo_hits == 1
        assert first[0] == first[1]
        # Only the twin's run is memoised; the recovery job is derived.
        assert ex.run(recovery.twin).stat(RECOVERY_STAT) == first[0].cycles
        assert ex.stats.executed == 1 and ex.stats.memo_hits == 2

    def test_plain_job_is_answered_by_a_memoised_twin(self):
        plain = _job()
        ex = Executor(workers=1)
        ex.run(plain.twin)
        expected = plain.execute()
        assert ex.run(plain) == expected  # the twin's stats, minus recovery
        assert ex.stats.executed == 1 and ex.stats.memo_hits == 1

    def test_a_recovering_job_does_not_take_a_plain_result(self):
        plain = _job()
        ex = Executor(workers=1)
        ex.run(plain)
        twin = ex.run(plain.twin)
        assert ex.stats.executed == 2
        assert RECOVERY_STAT in twin.stats


class TestParallelParity:
    def test_workers_do_not_change_results(self):
        jobs = [
            _job(),
            _job(config=_CFG_FAR),
            _job(app="scan", blocks=2),
        ]
        serial = Executor(workers=1).submit(jobs)
        parallel = Executor(workers=3).submit(jobs)
        assert serial == parallel
        # Byte-identical through serialization as well.
        for a, b in zip(serial, parallel):
            assert a.to_json() == b.to_json()


class TestFailures:
    def test_unknown_app_raises_with_traceback(self):
        bad = ScenarioJob(app="no-such-app", config=_CFG)
        ex = Executor(workers=1)
        with pytest.raises(JobFailedError) as excinfo:
            ex.submit([bad])
        assert "no-such-app" in str(excinfo.value)
        assert "Traceback" in str(excinfo.value)

    def test_allow_failures_yields_none_slot(self):
        bad = ScenarioJob(app="no-such-app", config=_CFG)
        good = _job()
        ex = Executor(workers=1)
        results = ex.submit([bad, good], allow_failures=True)
        assert results[0] is None
        assert results[1] is not None
        assert ex.stats.failed == 1
        assert len(ex.failures) == 1
        assert "Traceback" in str(ex.failures[0])

    def test_parallel_failure_carries_worker_traceback(self):
        bad = ScenarioJob(app="no-such-app", config=_CFG)
        ex = Executor(workers=2)
        results = ex.submit([bad, _job()], allow_failures=True)
        assert results[0] is None and results[1] is not None
        assert "KeyError" in str(ex.failures[0])

    def test_pooled_crash_raises_on_first_submit(self, monkeypatch):
        """A killed worker fails its job at once: one process, one
        ``crashed`` outcome, raised from the first ``submit``."""
        monkeypatch.setattr(executor_module, "execute_job_payload", _die)
        events = []
        ex = Executor(workers=2, progress=events.append)
        with pytest.raises(JobFailedError) as excinfo:
            ex.submit([_job()])
        assert excinfo.value.outcome.status == "crashed"
        assert [e.kind for e in events] == ["start", "done"]
        assert ex.stats.failed == 1 and ex.stats.executed == 0

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            Executor(workers=0)


def _die(payload):
    os.kill(os.getpid(), signal.SIGKILL)


class TestProgress:
    def test_progress_callback_in_serial_mode(self):
        events = []
        ex = Executor(workers=1, progress=events.append)
        ex.submit([_job()])
        assert [e.kind for e in events] == ["start", "done"]
        assert events[-1].status == "ok"


class TestWorkerPayload:
    def test_execute_job_payload_round_trip(self):
        job = _job()
        payload = execute_job_payload(job.to_json())
        result = ScenarioResult.from_json(payload)
        assert result == job.execute()
