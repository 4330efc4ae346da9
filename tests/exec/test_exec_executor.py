"""Executor semantics: dedupe, caching, parallel parity, failures."""

import dataclasses

import pytest

from repro.bench.runner import RECOVERY_STAT, ScenarioResult
from repro.common.config import ModelName, PMPlacement, small_system
from repro.exec import (
    MODE_RECOVERY,
    Executor,
    JobFailedError,
    ResultCache,
    ScenarioJob,
    execute_job_payload,
)

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


class TestCacheIntegration:
    def test_second_executor_hits_cache(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        job = _job()
        first = Executor(workers=1, cache=cache)
        r1 = first.submit([job])[0]
        assert first.stats.executed == 1

        second = Executor(workers=1, cache=cache)
        r2 = second.submit([job])[0]
        assert second.stats.executed == 0
        assert second.stats.cache_hits == 1
        assert second.stats.hit_rate == 1.0
        assert r2 == r1

    def test_cache_accepts_directory_string(self, tmp_path):
        ex = Executor(workers=1, cache=str(tmp_path / "c"))
        ex.submit([_job()])
        assert isinstance(ex.cache, ResultCache)
        assert len(ex.cache) == 1

    def test_traced_jobs_bypass_cache(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        traced = dataclasses.replace(_job(), trace_dir=str(tmp_path / "tr"))
        ex = Executor(workers=1, cache=cache)
        result = ex.submit([traced])[0]
        assert result.profile is not None  # traced run carries a profile
        assert len(cache) == 0  # but is never cached
        ex2 = Executor(workers=1, cache=cache)
        ex2.submit([traced])
        assert ex2.stats.executed == 1  # re-simulated, by design


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

    def test_recovery_job_runs_its_twin_once(self, tmp_path):
        recovery = dataclasses.replace(_job(), mode=MODE_RECOVERY)
        cache = ResultCache(str(tmp_path))
        ex = Executor(workers=1, cache=cache)
        first = ex.submit([recovery, recovery])
        assert ex.stats.executed == 1 and ex.stats.memo_hits == 1
        assert cache.get(recovery.twin) is not None
        assert cache.get(recovery) is None  # only the twin's run is cached
        warm = Executor(workers=1, cache=cache)
        assert warm.run(recovery) == first[0]
        assert warm.stats.executed == 0 and warm.stats.cache_hits == 1

    def test_plain_job_is_answered_by_a_memoised_or_cached_twin(self, tmp_path):
        plain = _job()
        cache = ResultCache(str(tmp_path))
        ex = Executor(workers=1, cache=cache)
        ex.run(plain.twin)
        expected = plain.execute()
        assert ex.run(plain) == expected  # the twin's stats, minus recovery
        assert ex.stats.executed == 1 and ex.stats.memo_hits == 1
        warm = Executor(workers=1, cache=cache)
        assert warm.run(plain) == expected
        assert warm.stats.executed == 0 and warm.stats.cache_hits == 1

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

    def test_parallel_path_feeds_cache(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        jobs = [_job(), _job(config=_CFG_FAR)]
        Executor(workers=2, cache=cache).submit(jobs)
        warm = Executor(workers=1, cache=cache)
        warm.submit(jobs)
        assert warm.stats.executed == 0
        assert warm.stats.cache_hits == 2


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

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            Executor(workers=0)


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
