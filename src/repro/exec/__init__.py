"""Scenario-execution subsystem: jobs, executor, worker pool.

The paper's evaluation is hundreds of independent simulator runs; this
subpackage turns them into schedulable work:

* :mod:`~repro.exec.jobs` — :class:`ScenarioJob`, a serializable spec of
  one measurement with a stable content hash (config + app params +
  mode, plus the trace options of a traced job);
* :mod:`~repro.exec.pool` — :class:`WorkerPool`, process-per-job
  parallelism with per-job timeout and crash isolation; a failed job
  fails at once, never retried;
* :mod:`~repro.exec.executor` — :class:`Executor`, the shared front end
  (in-process memo, then the pool or the serial fallback at
  ``workers=1``) the figure drivers submit through; nothing is
  reused across processes, and :class:`ExecStats` is its one counter
  set;
* :mod:`~repro.exec.sweep` — ``python -m repro.exec.sweep`` runs the
  full paper evaluation end-to-end.
"""

from repro.exec.executor import (
    ExecStats,
    Executor,
    JobFailedError,
    execute_job_payload,
)
from repro.exec.jobs import (
    MODE_CHECK,
    MODE_FAULTS,
    MODE_RECOVERY,
    MODE_SCENARIO,
    MODE_SERVE,
    ScenarioJob,
)
from repro.exec.pool import JobOutcome, PoolEvent, WorkerPool

__all__ = [
    "ExecStats",
    "Executor",
    "JobFailedError",
    "JobOutcome",
    "MODE_CHECK",
    "MODE_FAULTS",
    "MODE_RECOVERY",
    "MODE_SCENARIO",
    "MODE_SERVE",
    "PoolEvent",
    "ScenarioJob",
    "WorkerPool",
    "execute_job_payload",
]
