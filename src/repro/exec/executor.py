"""The Executor: deduplicated, optionally parallel job running.

One :class:`Executor` is shared across figure drivers so that scenarios
appearing in several figures (the Epoch-far / Epoch-near baselines show
up in nearly every one) simulate **exactly once** per executor.

Submission semantics:

* results come back aligned with the submitted job list;
* each job resolves as memo, then run: duplicate jobs (same
  :attr:`~repro.exec.jobs.ScenarioJob.key`, which covers a traced job's
  trace options) within or across ``submit`` calls are executed once,
  and only jobs the in-process memo cannot answer reach a backend;
* one run answers both halves of a cell (see ``ScenarioJob.twin``): a
  recovery job is answered by its ``recover=True`` scenario twin —
  memoised or executed in its place — and a plain scenario job by that
  twin whenever the twin is memoised;
* ``workers=1`` is a pure serial fallback — jobs run in-process with no
  multiprocessing involved, which is also the byte-identical reference
  path for the parallel scheduler;
* a job that raises, crashes or times out fails at once on either
  backend, as one :class:`JobFailedError`; nothing is retried.

:class:`ExecStats` is the layer's one counter set.
"""

from __future__ import annotations

import argparse
import time
import traceback
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
)

from repro.exec.jobs import MODE_RECOVERY, ScenarioJob
from repro.exec.pool import (
    STATUS_ERROR,
    STATUS_OK,
    JobOutcome,
    PoolEvent,
    WorkerPool,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.bench.runner import ScenarioResult


class JobFailedError(RuntimeError):
    """A submitted job failed; carries the worker's original traceback."""

    def __init__(self, job: ScenarioJob, outcome: JobOutcome) -> None:
        self.job = job
        self.outcome = outcome
        detail = outcome.error or "no error detail"
        super().__init__(
            f"job {job.label} failed ({outcome.status}):\n{detail}"
        )


def execute_job_payload(payload: dict) -> dict:
    """Worker-side runner: JSON job in, JSON result out.

    Module-level so it stays importable under every multiprocessing
    start method.
    """
    return ScenarioJob.from_json(payload).execute().to_json()


def answered_by(job: ScenarioJob) -> List[ScenarioJob]:
    """The jobs whose result answers *job*, the one to run on a miss
    first: a recovery job only by its twin, a plain scenario job by
    itself or its twin, any other job by itself."""
    twin = job.twin
    if job.mode == MODE_RECOVERY:
        return [twin]
    return [job] if twin is None else [job, twin]


def _bounded(kind: Callable[[str], Any], least: float, strict: bool = False):
    """An argparse ``type`` for *kind* values above *least* (or at least
    *least* when not *strict*), so a bad value exits 2, not 1."""
    relation = ">" if strict else ">="

    def parse(text: str) -> Any:
        value = kind(text)  # ValueError -> "invalid <kind> value"
        if not (value > least if strict else value >= least):
            raise argparse.ArgumentTypeError(
                f"must be {relation} {least:g}, got {text}"
            )
        return value

    parse.__name__ = kind.__name__
    return parse


#: ``--workers`` type shared by every CLI driver: an int >= 1.
positive_int = _bounded(int, 1)
#: Count type for the CLI drivers' options that may be zero.
non_negative_int = _bounded(int, 0)


def add_timeout_arg(parser: argparse.ArgumentParser) -> None:
    """Install the worker-pool ``--timeout`` shared by the CLI drivers."""
    parser.add_argument(
        "--timeout",
        type=_bounded(float, 0, strict=True),
        default=None,
        help="per-job timeout in seconds (parallel mode only)",
    )


@dataclass
class ExecStats:
    """Counters for one Executor's lifetime."""

    submitted: int = 0
    memo_hits: int = 0
    executed: int = 0
    failed: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of submissions served without a simulation."""
        if self.submitted == 0:
            return 0.0
        return 1.0 - self.executed / self.submitted

    def summary(self) -> str:
        return (
            f"{self.submitted} submitted, {self.executed} executed, "
            f"{self.memo_hits} memo hits, "
            f"{self.failed} failed ({100 * self.hit_rate:.0f}% served "
            "without simulation)"
        )


class Executor:
    """Runs :class:`ScenarioJob` sets through memo + pool."""

    def __init__(
        self,
        workers: int = 1,
        timeout: Optional[float] = None,
        progress: Optional[Callable[[PoolEvent], None]] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.workers = workers
        self.timeout = timeout
        self.progress = progress
        self.stats = ExecStats()
        self.failures: List[JobFailedError] = []
        self._memo: Dict[str, "ScenarioResult"] = {}
        self._t0 = time.monotonic()

    # ------------------------------------------------------------------
    # progress plumbing
    # ------------------------------------------------------------------
    def _emit(self, event: PoolEvent) -> None:
        """Hand a pool event to the progress callback, if any."""
        if self.progress is not None:
            self.progress(event)

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(
        self,
        jobs: Sequence[ScenarioJob],
        allow_failures: bool = False,
    ) -> List[Optional["ScenarioResult"]]:
        """Run *jobs*, returning results in submission order.

        Every failure is appended to :attr:`failures`.  The first one is
        raised as :class:`JobFailedError` (with the worker's original
        traceback) unless *allow_failures* is true, in which case a
        failed job's slot holds ``None``.  Either way every job that ran
        cleanly is memoised and counted first.
        """
        from repro.bench.runner import ScenarioResult

        jobs = list(jobs)
        self.stats.submitted += len(jobs)

        # Resolve memo hits; collect unique misses in order.
        # runs[i] is the job whose result answers jobs[i].
        runs: List[ScenarioJob] = []
        misses: List[int] = []  # index of first occurrence per unique key
        seen_this_call: Dict[str, int] = {}
        for i, job in enumerate(jobs):
            candidates = answered_by(job)
            run = self._lookup(candidates, seen_this_call)
            if run is None:
                run = candidates[0]
                seen_this_call[run.key] = i
                misses.append(i)
            runs.append(run)

        # Execute the misses.
        outcomes: Dict[int, JobOutcome] = {}
        if misses:
            todo = [runs[i] for i in misses]
            if self.workers == 1:
                outcomes = self._run_serial(todo, misses)
            else:
                outcomes = self._run_pool(todo, misses)

        # Every outcome is memoised or counted before the first failure
        # is raised: jobs that already ran are never simulated again.
        failures: List[JobFailedError] = []
        for i, outcome in outcomes.items():
            job = runs[i]
            if outcome.ok:
                self._memo[job.key] = ScenarioResult.from_json(outcome.value)
                self.stats.executed += 1
            else:
                self.stats.failed += 1
                failures.append(JobFailedError(job, outcome))
        self.failures.extend(failures)
        if failures and not allow_failures:
            raise failures[0]

        results: List[Optional["ScenarioResult"]] = []
        for job, run in zip(jobs, runs):
            result = self._memo.get(run.key)
            if result is not None and run is not job:
                result = job.answer(result)
            results.append(result)
        return results

    def _lookup(
        self,
        candidates: List[ScenarioJob],
        pending: Dict[str, int],
    ) -> Optional[ScenarioJob]:
        """The first of *candidates* whose result is memoised or
        *pending* (a miss earlier in this call), counting the hit; None
        on a miss."""
        for run in candidates:
            key = run.key
            if key in self._memo or key in pending:
                self.stats.memo_hits += 1
                return run
        return None

    def run(self, job: ScenarioJob) -> "ScenarioResult":
        """Convenience wrapper: submit one job, return its result."""
        result = self.submit([job])[0]
        assert result is not None
        return result

    def footer(self) -> str:
        """One-line end-of-run summary for CLI drivers."""
        wall = time.monotonic() - self._t0
        return f"[exec] {self.stats.summary()} in {wall:.1f}s wall"

    # ------------------------------------------------------------------
    # execution backends
    # ------------------------------------------------------------------
    def _run_serial(
        self, jobs: List[ScenarioJob], indices: List[int]
    ) -> Dict[int, JobOutcome]:
        outcomes: Dict[int, JobOutcome] = {}
        total = len(jobs)
        for n, (job, index) in enumerate(zip(jobs, indices)):
            self._emit(
                PoolEvent(
                    kind="start", index=index, label=job.label,
                    done=n, total=total,
                )
            )
            try:
                value = execute_job_payload(job.to_json())
            except Exception:
                outcome = JobOutcome(
                    index=index,
                    status=STATUS_ERROR,
                    error=traceback.format_exc(),
                )
            else:
                outcome = JobOutcome(index=index, status=STATUS_OK, value=value)
            outcomes[index] = outcome
            self._emit(
                PoolEvent(
                    kind="done", index=index, label=job.label,
                    status=outcome.status, done=n + 1, total=total,
                )
            )
        return outcomes

    def _run_pool(
        self, jobs: List[ScenarioJob], indices: List[int]
    ) -> Dict[int, JobOutcome]:
        pool = WorkerPool(
            workers=self.workers, timeout=self.timeout, progress=self._emit
        )
        pool_outcomes = pool.run(
            [job.to_json() for job in jobs],
            execute_job_payload,
            labels=[job.label for job in jobs],
        )
        return {
            index: outcome
            for index, outcome in zip(indices, pool_outcomes)
        }
