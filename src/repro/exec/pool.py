"""Crash-isolated multiprocessing worker pool.

Each job runs in its **own** worker process (process-per-job, bounded by
``workers`` concurrent processes).  That costs a fork per job — noise
next to a multi-second simulation — and buys the three properties a
sweep scheduler needs:

* **crash isolation**: a worker segfaulting or being OOM-killed
  mid-simulation fails only its job; the sweep keeps going (unlike
  ``concurrent.futures.ProcessPoolExecutor``, whose pool breaks);
* **per-job timeout**: a hung simulation is terminated without
  poisoning a shared worker;
* **bounded retry with exponential backoff** for crashes and timeouts
  (clean exceptions are deterministic here and not retried by default).

Results come back in submission order regardless of completion order.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass
from multiprocessing import get_context
from multiprocessing.connection import wait as conn_wait
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.metrics.registry import MetricsRegistry

#: Poll interval of the scheduler loop (seconds).
_POLL_S = 0.02

#: Outcome statuses.
STATUS_OK = "ok"
STATUS_ERROR = "error"  # runner raised; error holds the traceback
STATUS_TIMEOUT = "timeout"  # exceeded the per-job timeout
STATUS_CRASHED = "crashed"  # worker died without reporting a result

Runner = Callable[[Any], Any]
Progress = Callable[["PoolEvent"], None]


@dataclass(frozen=True)
class PoolEvent:
    """One progress notification from the pool."""

    kind: str  # "start" | "done" | "retry"
    index: int
    label: str
    status: Optional[str] = None  # set for "done"
    attempt: int = 1
    done: int = 0
    total: int = 0


@dataclass
class JobOutcome:
    """Terminal state of one submitted payload."""

    index: int
    status: str
    value: Any = None
    error: Optional[str] = None
    attempts: int = 1
    duration: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


@dataclass
class _Pending:
    index: int
    attempt: int = 1
    ready_at: float = 0.0


@dataclass
class _Active:
    index: int
    attempt: int
    process: Any
    conn: Any
    started: float


def _worker_entry(runner: Runner, payload: Any, conn) -> None:
    """Worker-side wrapper: report a value or the original traceback."""
    try:
        value = runner(payload)
    except BaseException:
        conn.send((STATUS_ERROR, traceback.format_exc()))
    else:
        conn.send((STATUS_OK, value))
    finally:
        conn.close()


class WorkerPool:
    """Runs payloads through a runner callable in isolated processes."""

    def __init__(
        self,
        workers: int = 2,
        timeout: Optional[float] = None,
        retries: int = 1,
        backoff: float = 0.5,
        progress: Optional[Progress] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.workers = workers
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.progress = progress
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        # fork keeps arbitrary runner callables usable and is the fast
        # path on Linux; elsewhere fall back to spawn (runner must then
        # be an importable top-level function).
        try:
            self._ctx = get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            self._ctx = get_context("spawn")

    # ------------------------------------------------------------------
    def run(
        self,
        payloads: Sequence[Any],
        runner: Runner,
        labels: Optional[Sequence[str]] = None,
    ) -> List[JobOutcome]:
        """Execute every payload; outcomes align with *payloads*."""
        total = len(payloads)
        names = list(labels) if labels is not None else [
            f"job{i}" for i in range(total)
        ]
        outcomes: List[Optional[JobOutcome]] = [None] * total
        pending: List[_Pending] = [_Pending(i) for i in range(total)]
        active: Dict[Any, _Active] = {}  # conn -> state
        done = 0

        def emit(kind: str, state_index: int, attempt: int, status=None):
            if self.progress is not None:
                self.progress(
                    PoolEvent(
                        kind=kind,
                        index=state_index,
                        label=names[state_index],
                        status=status,
                        attempt=attempt,
                        done=done,
                        total=total,
                    )
                )

        def finish(state: _Active, status: str, value=None, error=None):
            nonlocal done
            duration = time.monotonic() - state.started
            retryable = status in (STATUS_CRASHED, STATUS_TIMEOUT)
            if retryable and state.attempt <= self.retries:
                delay = self.backoff * (2 ** (state.attempt - 1))
                pending.append(
                    _Pending(
                        state.index,
                        attempt=state.attempt + 1,
                        ready_at=time.monotonic() + delay,
                    )
                )
                # Pool-only metrics cover abnormal events exclusively:
                # clean runs emit none, so serial and pooled snapshots
                # stay byte-identical.
                self.metrics.add("exec.pool.retry")
                self.metrics.add(f"exec.pool.retry_status.{status}")
                emit("retry", state.index, state.attempt, status)
                return
            outcomes[state.index] = JobOutcome(
                index=state.index,
                status=status,
                value=value,
                error=error,
                attempts=state.attempt,
                duration=duration,
            )
            done += 1
            emit("done", state.index, state.attempt, status)

        while pending or active:
            now = time.monotonic()

            # Launch ready pending jobs up to the concurrency cap, in
            # index order so scheduling stays deterministic.
            pending.sort(key=lambda p: (p.ready_at > now, p.index))
            while pending and len(active) < self.workers:
                item = pending[0]
                if item.ready_at > now:
                    break
                pending.pop(0)
                parent_conn, child_conn = self._ctx.Pipe(duplex=False)
                process = self._ctx.Process(
                    target=_worker_entry,
                    args=(runner, payloads[item.index], child_conn),
                    daemon=True,
                )
                process.start()
                child_conn.close()
                active[parent_conn] = _Active(
                    index=item.index,
                    attempt=item.attempt,
                    process=process,
                    conn=parent_conn,
                    started=time.monotonic(),
                )
                emit("start", item.index, item.attempt)

            if not active:
                # Everything pending is backing off; sleep until the
                # earliest retry becomes ready.
                if pending:
                    time.sleep(
                        max(
                            _POLL_S,
                            min(p.ready_at for p in pending) - now,
                        )
                    )
                continue

            ready = conn_wait(list(active), timeout=_POLL_S)
            for conn in ready:
                state = active.pop(conn)
                try:
                    status, value = conn.recv()
                except (EOFError, OSError):
                    status, value = STATUS_CRASHED, None
                finally:
                    conn.close()
                state.process.join(timeout=5.0)
                if status == STATUS_OK:
                    finish(state, STATUS_OK, value=value)
                elif status == STATUS_ERROR:
                    finish(state, STATUS_ERROR, error=value)
                else:
                    finish(
                        state,
                        STATUS_CRASHED,
                        error=(
                            f"worker exited without a result "
                            f"(exitcode={state.process.exitcode})"
                        ),
                    )

            now = time.monotonic()
            for conn in list(active):
                state = active[conn]
                # conn.poll() guards the race where the worker finished
                # between conn_wait and this liveness check.
                if conn.poll():
                    continue
                if not state.process.is_alive():
                    active.pop(conn)
                    conn.close()
                    state.process.join(timeout=5.0)
                    finish(
                        state,
                        STATUS_CRASHED,
                        error=(
                            f"worker died mid-run "
                            f"(exitcode={state.process.exitcode})"
                        ),
                    )
                elif (
                    self.timeout is not None
                    and now - state.started > self.timeout
                ):
                    active.pop(conn)
                    state.process.terminate()
                    state.process.join(timeout=5.0)
                    if state.process.is_alive():  # pragma: no cover
                        state.process.kill()
                        state.process.join(timeout=5.0)
                    conn.close()
                    finish(
                        state,
                        STATUS_TIMEOUT,
                        error=(
                            f"job exceeded timeout of {self.timeout:.1f}s"
                        ),
                    )

        missing = [i for i, o in enumerate(outcomes) if o is None]
        if missing:  # pragma: no cover - scheduler invariant
            raise RuntimeError(f"pool lost track of jobs {missing}")
        return outcomes  # type: ignore[return-value]
