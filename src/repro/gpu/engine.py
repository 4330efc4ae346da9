"""Discrete-event simulation engine.

One ``(time, seq, callback)`` queue drives the whole system: a FIFO
for events due now plus a binary heap for future ones, popped in
``(time, seq)`` order.  Components schedule callbacks; the engine pops
them in time order until the queue empties or a cycle budget is
exceeded.

A *watchdog* guards against livelocks that the cycle budget would take
minutes of wall-clock time to reach (a spin loop advances simulated time
only ~40 cycles per event).  Progress sources — persist flushes, warp
retirements — call :meth:`Engine.note_progress`; if a bounded number of
events elapse without any, the engine raises
:class:`~repro.common.errors.LivelockError` carrying queue-depth
diagnostics instead of spinning until the pool timeout kills the
process.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.common.errors import LivelockError, SimulationError
from repro.metrics.registry import MetricsRegistry

EventFn = Callable[[float], None]

#: Default watchdog bound: events processed without a single progress
#: signal before the run is declared livelocked.  Generous — real
#: workloads flush a persist or retire a warp far more often than this —
#: while a wedged spin loop reaches it in seconds of wall-clock time.
DEFAULT_WATCHDOG_EVENTS = 2_000_000


class Engine:
    """Time-ordered event queue with a hard cycle budget.

    The hot schedule shape is "run this at the current cycle": ack
    chains, pump kicks and warp wakeups overwhelmingly land at ``now``.
    Those bypass the heap entirely and go to a FIFO deque; only genuine
    future events pay the ``heappush``/``heappop`` log cost.

    Pop order is *exactly* ``(time, seq)`` order, the order one binary
    heap over every event would give:

    - ``_seq`` is globally monotone, so the FIFO — appended in schedule
      order with times clamped to the non-decreasing ``now`` — is always
      sorted by ``(time, seq)``.
    - The global minimum is therefore ``min(heap[0], fifo[0])`` compared
      lexicographically, the same tuple comparison ``heapq`` uses.

    ``tests/perfcore/test_queue_property.py`` drives the engine and a
    plain ``heapq`` model with arbitrary (time, tie) insert/pop
    interleavings (Hypothesis) and asserts identical pop sequences,
    including same-cycle ties.
    """

    def __init__(
        self,
        max_cycles: float = 2e9,
        stats: Optional[MetricsRegistry] = None,
        watchdog_events: Optional[int] = None,
    ) -> None:
        self.now: float = 0.0
        self.max_cycles = max_cycles
        self.stats = stats if stats is not None else MetricsRegistry()
        #: Events without progress before :class:`LivelockError`;
        #: ``0`` disables the watchdog.
        self.watchdog_events = (
            DEFAULT_WATCHDOG_EVENTS if watchdog_events is None else watchdog_events
        )
        #: Optional callback returning queue depths for livelock
        #: diagnostics (the GPU layer installs one reporting blocked
        #: warps per SM).
        self.watchdog_diagnostics: Optional[Callable[[], Dict[str, float]]] = None
        self._queue: List[Tuple[float, int, EventFn]] = []
        self._fifo: Deque[Tuple[float, int, EventFn]] = deque()
        self._seq = 0
        self.events_processed = 0
        self._idle_events = 0
        #: Stop flag: an event sets this to break the run loop before
        #: the next pop; :meth:`run` clears it on exit.  ``GPU.on_warp_done``
        #: raises it when a launch's last block retires, and the
        #: persistency models raise it in the event that finishes a
        #: ``GPU.sync`` drain.  Raised before :meth:`run`, it makes the
        #: run pop nothing.
        self._stop = False

    def schedule(self, time: float, fn: EventFn) -> None:
        """Run *fn(now)* at simulated time *time* (clamped to now)."""
        self._seq += 1
        if time <= self.now:
            self._fifo.append((self.now, self._seq, fn))
        else:
            heapq.heappush(self._queue, (time, self._seq, fn))

    def schedule_in(self, delay: float, fn: EventFn) -> None:
        self.schedule(self.now + delay, fn)

    def note_progress(self) -> None:
        """Reset the watchdog: the system did something irreversible
        (flushed a persist, retired a warp)."""
        self._idle_events = 0

    def _livelock(self) -> LivelockError:
        depths: Dict[str, float] = {"engine.pending": float(self.pending())}
        if self.watchdog_diagnostics is not None:
            depths.update(self.watchdog_diagnostics())
        return LivelockError(self.now, self._idle_events, depths)

    def run(self) -> float:
        """Process events until the queue drains or the stop flag is
        raised.

        Returns the final simulated time.  Raises
        :class:`SimulationError` when the cycle budget is exhausted and
        :class:`LivelockError` when the watchdog sees no forward
        progress, both of which almost always indicate a livelocked spin
        loop in a kernel (or an injected fault that wedged the machine).
        """
        stats = self.stats
        watchdog = self.watchdog_events
        queue = self._queue
        fifo = self._fifo
        # Counted locally and added on exit: a spin skip inside an event
        # adds its events to ``self.events_processed`` directly.
        events_processed = 0
        try:
            while queue or fifo:
                if self._stop:
                    break
                # Lexicographic min of the two sorted fronts == heap order.
                if not queue or (fifo and fifo[0] < queue[0]):
                    time, _seq, fn = fifo.popleft()
                else:
                    time, _seq, fn = heapq.heappop(queue)
                if time > self.max_cycles:
                    raise SimulationError(
                        f"cycle budget exceeded at t={time:.0f} "
                        f"(budget {self.max_cycles:.0f}); likely a livelock "
                        f"({len(queue) + len(fifo)} events still queued)"
                    )
                if time > self.now:
                    self.now = time
                events_processed += 1
                if watchdog:
                    idle_events = self._idle_events + 1
                    self._idle_events = idle_events
                    if idle_events > watchdog:
                        raise self._livelock()
                fn(self.now)
        finally:
            self.events_processed += events_processed
            self._stop = False
        stats.set("engine.events_processed", float(self.events_processed))
        stats.set("engine.now", self.now)
        return self.now

    def spin_window(self) -> Optional[List[Tuple[float, int, EventFn]]]:
        """The pending events, as the binary heap the run loop pops,
        for a spin skip to read (:func:`repro.gpu.sm.skip_spins`).

        ``None`` when no skip may run: the stop flag is up, nothing is
        queued, or events wait in the same-cycle FIFO (each is due now,
        so it would end the window before it starts).  The caller must
        not change the list; :meth:`skip` does.
        """
        if self._stop or self._fifo or not self._queue:
            return None
        return self._queue

    def skip(
        self,
        moved: List[Tuple[int, float, EventFn]],
        events: int,
        limit: float,
        end: float,
    ) -> bool:
        """Account for *events* events that ran outside the loop, the
        last at time *end*, all before *limit*, as if the loop had
        popped them.

        Each ``(index, time, fn)`` of *moved* replaces the event at
        that heap index: it is the next event of a chain the skipped
        events extended.  The replacements take the highest of the
        *events* fresh sequence numbers the skipped events consumed, in
        list order.  Returns ``False``, changing nothing, when the loop
        would have raised inside the run: *limit* passes the cycle
        budget, or the watchdog would fire.
        """
        if limit > self.max_cycles:
            return False
        watchdog = self.watchdog_events
        if watchdog:
            if self._idle_events + events > watchdog:
                return False
            self._idle_events += events
        queue = self._queue
        seq = self._seq + events - len(moved)
        for index, time, fn in moved:
            seq += 1
            queue[index] = (time, seq, fn)
        heapq.heapify(queue)
        self._seq += events
        self.events_processed += events
        if end > self.now:
            self.now = end
        return True

    def pending(self) -> int:
        return len(self._queue) + len(self._fifo)

    def reset(self) -> None:
        self.now = 0.0
        self._queue.clear()
        self._fifo.clear()
        self._seq = 0
        self.events_processed = 0
        self._idle_events = 0
