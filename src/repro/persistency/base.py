"""Persistency-model interface and shared machinery.

The SM calls these hooks on every operation that touches persistent
state.  A hook returns a plain value:

* a number ``at`` — the operation finishes at time ``at``; the warp
  becomes ready then.
* ``None`` — the model stalls the warp and promises to call
  ``sm.wake_warp`` (retry the op) or ``sm.complete_blocked`` (resume
  past it) later.

Shared helpers implement the one mechanism every model needs: flushing a
dirty L1 line into the persistence domain (write words to the visible
image + send the line to the memory subsystem).
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Dict, Mapping, Optional

from repro.common.config import Scope, SystemConfig
from repro.metrics.registry import MetricsRegistry
from repro.memory.cache import CacheLine
from repro.memory.devices import WriteAck

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.gpu.sm import SM
    from repro.gpu.warp import Warp


class PersistencyModel(abc.ABC):
    """Base class of GPM / Epoch / SBRP policy objects."""

    def __init__(self, config: SystemConfig, stats: MetricsRegistry) -> None:
        self.config = config
        self.stats = stats

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def init_sm(self, sm: "SM") -> None:
        """Create per-SM state (masks, buffers).  Default: none."""

    # ------------------------------------------------------------------
    # hooks (all abstract)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def pm_store(
        self,
        sm: "SM",
        warp: "Warp",
        line_addr: int,
        words: Mapping[int, int],
        now: float,
    ) -> Optional[float]:
        """Handle one PM-line's worth of a warp store."""

    @abc.abstractmethod
    def ofence(self, sm: "SM", warp: "Warp", now: float) -> Optional[float]:
        """Intra-thread ordering fence (Box 2)."""

    @abc.abstractmethod
    def dfence(self, sm: "SM", warp: "Warp", now: float) -> Optional[float]:
        """Durability fence: stall until prior persists are durable."""

    @abc.abstractmethod
    def pacq(
        self, sm: "SM", warp: "Warp", addr: int, scope: Scope, value: int, now: float
    ) -> Optional[float]:
        """Persist acquire.  *value* is the flag value already loaded;
        zero means "not yet released" and carries no obligations."""

    @abc.abstractmethod
    def prel(
        self, sm: "SM", warp: "Warp", addr: int, value: int, scope: Scope, now: float
    ) -> Optional[float]:
        """Persist release of *value* to *addr*.  The model decides when
        the flag becomes visible (it must publish via
        :meth:`publish_flag` once its ordering obligations are met)."""

    @abc.abstractmethod
    def threadfence(
        self, sm: "SM", warp: "Warp", scope: Scope, now: float
    ) -> Optional[float]:
        """Conventional scoped fence (orders volatile and PM writes)."""

    @abc.abstractmethod
    def evict_dirty_pm(
        self, sm: "SM", warp: "Warp", line: CacheLine, now: float
    ) -> Optional[float]:
        """A read/write wants to replace a dirty PM line (capacity)."""

    @abc.abstractmethod
    def begin_drain(self, sm: "SM", now: float) -> None:
        """Kernel end: start flushing every buffered persist.  The drain
        proceeds event-driven so all SMs drain concurrently.

        ``GPU.sync`` calls this for every SM, then runs the engine until
        its stop flag.  The model must raise that flag
        (``sm.engine._stop = True``) in the event after which
        :meth:`drained` first holds for every SM, and in no other
        event; ``GPU.sync`` raises it itself when every SM is drained
        before the run."""

    @abc.abstractmethod
    def drained(self, sm: "SM", now: float) -> bool:
        """True once *sm* has no buffered or unacknowledged persists."""

    def finish_drain(self, sm: "SM") -> None:
        """Post-drain cleanup before the next launch.  Default: none."""

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    def flush_line(self, sm: "SM", line: CacheLine, now: float) -> WriteAck:
        """Write a dirty PM line through to the persistence domain.

        Updates the globally visible image (persists write through the
        L2) and returns the WPQ acceptance/ack times.

        Every flush counts as forward progress for the engine watchdog.
        A fault injector may *drop* the flush: the line stays globally
        visible and the SM receives a prompt (lying) ack, but nothing is
        logged — the persist never becomes durable.
        """
        sm.engine.note_progress()
        # Handed off, not copied: both exits below reassign the line a
        # fresh dirty_words dict, so this reference is never aliased.
        words: Dict[int, int] = line.dirty_words
        # Bulk write-through: dirty words were int()-normalized and
        # alignment-checked when stored, so a dict update is equivalent
        # to per-word backing.write calls.
        sm.backing.visible.update(words)
        faults = sm.subsystem.faults
        if faults is not None and faults.drop_flush(sm.sm_id, line.tag):
            line.dirty = False
            line.dirty_words = {}
            self.stats.add(sm.stat_pm_flushes)
            self.stats.add("faults.dropped_flushes")
            return WriteAck(now + 1, now + self.config.gpu.l2_latency)
        ack = sm.subsystem.persist_line(now, sm.sm_id, line.tag, words)
        if sm.tracer is not None:
            # Lifecycle: drain issued now; durable at acceptance; the
            # SM learns (ACTR decrement) at the ack.
            sm.tracer.persist_flush(
                sm.sm_id, line.tag, now, ack.accept_time, ack.ack_time
            )
        line.dirty = False
        line.dirty_words = {}
        self.stats._counters[sm.stat_pm_flushes] += 1.0
        return ack

    def publish_flag(self, sm: "SM", addr: int, value: int) -> None:
        """Make a release flag value globally visible."""
        sm.backing.write(addr, value)
