"""The exec layer's counters and helpers: ExecStats, failure accounting on
both backends, the pooled timeout, the memo's candidate order and the
shared CLI number types."""

import argparse
import dataclasses
import time

import pytest

from repro.common.config import ModelName, PMPlacement, small_system
from repro.exec import (
    MODE_RECOVERY,
    ExecStats,
    Executor,
    JobFailedError,
    ScenarioJob,
)
from repro.exec import executor as executor_module
from repro.exec.executor import answered_by, non_negative_int, positive_int

_CFG = small_system(ModelName.SBRP, PMPlacement.NEAR)


def _job(**params) -> ScenarioJob:
    params = params or {"blocks": 2, "per_thread": 1}
    return ScenarioJob(app="reduction", config=_CFG, app_params=params)


def _bad_job() -> ScenarioJob:
    # An unknown app parameter: the app's constructor raises TypeError.
    return _job(no_such_param=1)


def _hang(payload):
    time.sleep(60.0)


class TestExecStats:
    def test_hit_rate_of_no_submissions_is_zero(self):
        assert ExecStats().hit_rate == 0.0

    def test_hit_rate_counts_runs_against_submissions(self):
        assert ExecStats(submitted=4, memo_hits=3, executed=1).hit_rate == 0.75

    def test_summary_names_every_counter(self):
        stats = ExecStats(submitted=7, memo_hits=2, executed=5, failed=0)
        assert stats.summary() == (
            "7 submitted, 5 executed, 2 memo hits, 0 failed "
            "(29% served without simulation)"
        )

    def test_footer_carries_the_summary(self):
        ex = Executor(workers=1)
        ex.submit([_job(), _job()])
        assert ex.footer().startswith(
            "[exec] 2 submitted, 1 executed, 1 memo hits, 0 failed"
        )


@pytest.mark.parametrize("workers", [1, 2], ids=["serial", "pool"])
class TestFailureAccounting:
    def test_failed_job_is_not_memoised(self, workers):
        """A failure is counted, not cached: the same job runs again."""
        ex = Executor(workers=workers)
        for _ in range(2):
            assert ex.submit([_bad_job()], allow_failures=True) == [None]
        assert ex.stats == ExecStats(submitted=2, failed=2)
        assert len(ex.failures) == 2

    def test_failure_names_job_status_and_exception(self, workers):
        ex = Executor(workers=workers)
        job = _bad_job()
        with pytest.raises(JobFailedError) as excinfo:
            ex.submit([job])
        message = str(excinfo.value)
        assert message.startswith(f"job {job.label} failed (error):\n")
        # The traceback's last line names the exception class.
        assert message.rstrip().splitlines()[-1].startswith("TypeError:")
        assert excinfo.value.job is job

    def test_raise_keeps_the_jobs_that_ran(self, workers):
        """The first failure is raised only after every clean outcome
        of the call is memoised and counted: resubmitting it is a hit."""
        ex = Executor(workers=workers)
        bad, good = _bad_job(), _job()
        with pytest.raises(JobFailedError) as excinfo:
            ex.submit([bad, good])
        assert excinfo.value.job is bad
        assert ex.stats == ExecStats(submitted=2, executed=1, failed=1)
        assert ex.submit([good])[0] is not None
        assert ex.stats == ExecStats(submitted=3, memo_hits=1, executed=1, failed=1)


class TestPooledTimeout:
    def test_hung_job_fails_as_timeout(self, monkeypatch):
        monkeypatch.setattr(executor_module, "execute_job_payload", _hang)
        events = []
        ex = Executor(workers=2, timeout=0.3, progress=events.append)
        with pytest.raises(JobFailedError) as excinfo:
            ex.submit([_job()])
        assert excinfo.value.outcome.status == "timeout"
        assert [(e.kind, e.status) for e in events] == [
            ("start", None),
            ("done", "timeout"),
        ]
        assert ex.stats == ExecStats(submitted=1, failed=1)


class TestAnsweredBy:
    def test_recovery_job_is_answered_only_by_its_twin(self):
        recovery = dataclasses.replace(_job(), mode=MODE_RECOVERY)
        assert answered_by(recovery) == [recovery.twin]

    def test_plain_scenario_job_tries_itself_first(self):
        job = _job()
        assert answered_by(job) == [job, job.twin]

    def test_recovering_job_is_answered_by_itself(self):
        recovering = dataclasses.replace(_job(), recover=True)
        assert recovering.twin is None
        assert answered_by(recovering) == [recovering]


class TestCliNumberTypes:
    @pytest.mark.parametrize(
        "parse, text, value",
        [
            (positive_int, "1", 1),
            (positive_int, "12", 12),
            (non_negative_int, "0", 0),
        ],
        ids=["positive-one", "positive-many", "non-negative-zero"],
    )
    def test_accepts_values_in_range(self, parse, text, value):
        assert parse(text) == value

    @pytest.mark.parametrize(
        "parse, text, message",
        [
            (positive_int, "0", "must be >= 1, got 0"),
            (non_negative_int, "-1", "must be >= 0, got -1"),
        ],
        ids=["positive-zero", "non-negative-minus-one"],
    )
    def test_rejects_values_out_of_range(self, parse, text, message):
        with pytest.raises(argparse.ArgumentTypeError, match=message):
            parse(text)

    def test_non_number_exits_2_as_invalid_int(self, capsys):
        parser = argparse.ArgumentParser()
        parser.add_argument("--n", type=non_negative_int)
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(["--n", "many"])
        assert exc.value.code == 2
        assert "invalid int value: 'many'" in capsys.readouterr().err
