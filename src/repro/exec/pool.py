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
* **fail fast**: a job that raises, crashes or times out ends at once
  in one outcome.  Every simulation is deterministic, so a second try
  would end the same way.

Results come back in submission order regardless of completion order.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass
from multiprocessing import get_context
from multiprocessing.connection import wait as conn_wait
from typing import Any, Callable, Dict, List, Optional, Sequence

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

    kind: str  # "start" | "done"
    index: int
    label: str
    status: Optional[str] = None  # set for "done"
    done: int = 0
    total: int = 0


@dataclass
class JobOutcome:
    """Terminal state of one submitted payload."""

    index: int
    status: str
    value: Any = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


@dataclass
class _Active:
    index: int
    process: Any
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
        progress: Optional[Progress] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.workers = workers
        self.timeout = timeout
        self.progress = progress
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
        active: Dict[Any, _Active] = {}  # conn -> state
        launched = done = 0

        def emit(kind: str, index: int, status=None):
            if self.progress is not None:
                self.progress(
                    PoolEvent(
                        kind=kind,
                        index=index,
                        label=names[index],
                        status=status,
                        done=done,
                        total=total,
                    )
                )

        def finish(state: _Active, status: str, value=None, error=None):
            nonlocal done
            outcomes[state.index] = JobOutcome(
                index=state.index, status=status, value=value, error=error
            )
            done += 1
            emit("done", state.index, status)

        while launched < total or active:
            # Launch pending jobs up to the concurrency cap, in index
            # order so scheduling stays deterministic.
            while launched < total and len(active) < self.workers:
                parent_conn, child_conn = self._ctx.Pipe(duplex=False)
                process = self._ctx.Process(
                    target=_worker_entry,
                    args=(runner, payloads[launched], child_conn),
                    daemon=True,
                )
                process.start()
                child_conn.close()
                active[parent_conn] = _Active(
                    index=launched,
                    process=process,
                    started=time.monotonic(),
                )
                emit("start", launched)
                launched += 1

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

        # Every launched job was reaped through finish().
        return outcomes  # type: ignore[return-value]
