"""Timing models for memory devices and links.

Devices are pure *time calculators*: given an arrival time and a size
they return completion times and advance internal ``next_free`` markers.
They never touch the event queue, which keeps them trivially composable
and unit-testable.

The :class:`NVMController` models an ADR memory controller: a write is
*durable* the moment the controller accepts it into its capacitor-backed
write pending queue (WPQ); the WPQ drains to the NVM medium at the
device's write bandwidth, and a full WPQ back-pressures acceptance.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, NamedTuple, Optional

from repro.metrics.registry import MetricsRegistry
from repro.trace.tracer import Tracer


class WriteAck(NamedTuple):
    """Outcome of a persist reaching a memory controller.

    ``accept_time`` is the durability point (ADR semantics).
    ``ack_time`` is when the issuing SM learns about it (ACTR decrement),
    which adds the return trip on PM-far systems.  An immutable tuple,
    built once per persist.
    """

    accept_time: float
    ack_time: float


class BandwidthChannel:
    """A (latency, bytes/cycle) pipe with single-queue occupancy.

    A transfer arriving at ``now`` starts when the channel is free,
    occupies it for ``nbytes / bytes_per_cycle`` cycles, and completes one
    propagation latency after its occupancy ends.
    """

    def __init__(
        self,
        name: str,
        latency: int,
        bytes_per_cycle: float,
        stats: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if bytes_per_cycle <= 0:
            raise ValueError(f"{name}: bandwidth must be positive")
        self.name = name
        self.latency = latency
        self.bytes_per_cycle = bytes_per_cycle
        self.next_free = 0.0
        self.stats = stats if stats is not None else MetricsRegistry()
        self.tracer = tracer
        # Hot path: precomputed stat names (no per-transfer f-strings).
        self._stat_bytes = f"{name}.bytes"
        self._stat_transfers = f"{name}.transfers"
        self._stat_busy = f"{name}.busy_cycles"

    def transfer(self, now: float, nbytes: int) -> float:
        """Return the completion time of a transfer of *nbytes*."""
        start = max(now, self.next_free)
        occupancy = nbytes / self.bytes_per_cycle
        self.next_free = start + occupancy
        # Inlined stats.add x3 (pure defaultdict increments; transfer is
        # the single hottest stats producer in the memory system).
        counters = self.stats._counters
        counters[self._stat_bytes] += nbytes
        counters[self._stat_transfers] += 1.0
        counters[self._stat_busy] += occupancy
        if self.tracer is not None:
            self.tracer.span(self.name, "xfer", start, start + occupancy)
        return start + occupancy + self.latency

    def reset(self) -> None:
        self.next_free = 0.0


class NVMController:
    """One ADR-enabled NVM memory controller with a WPQ.

    Reads and writes use separate bandwidths (Optane-style asymmetry,
    Table 1: 84 GB/s read vs 42 GB/s write).
    """

    def __init__(
        self,
        name: str,
        read_bytes_per_cycle: float,
        write_bytes_per_cycle: float,
        latency: int,
        wpq_entries: int,
        stats: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.name = name
        self.tracer = tracer
        self.stats = stats if stats is not None else MetricsRegistry()
        self.read_channel = BandwidthChannel(
            f"{name}.read", latency, read_bytes_per_cycle, self.stats, self.tracer
        )
        self.write_bytes_per_cycle = write_bytes_per_cycle
        self.latency = latency
        self.wpq_entries = wpq_entries
        # Optional fault-timeline injector: scales drain bandwidth and
        # clamps WPQ capacity inside scheduled windows.
        self.throttle = None
        # Drain-end times of writes currently considered in the WPQ; a new
        # write is accepted once a slot is free.
        self._wpq: Deque[float] = deque()
        self._last_drain_end = 0.0
        self._stat_wpq_stall = f"{name}.wpq_stall_cycles"
        self._stat_bytes_written = f"{name}.bytes_written"
        self._stat_writes = f"{name}.writes"

    def read(self, now: float, nbytes: int) -> float:
        """Completion time of a read of *nbytes* from the NVM medium."""
        return self.read_channel.transfer(now, nbytes)

    def write(self, now: float, nbytes: int) -> float:
        """Accept a persist; return the acceptance (durability) time.

        The write is durable at acceptance (ADR).  Acceptance waits for a
        free WPQ slot, which frees when the oldest queued write finishes
        draining to the medium at the NVM write bandwidth.
        """
        while self._wpq and self._wpq[0] <= now:
            self._wpq.popleft()
        entries = self.wpq_entries
        bytes_per_cycle = self.write_bytes_per_cycle
        if self.throttle is not None:
            bytes_per_cycle *= self.throttle.nvm_scale_at(now)
            limit = self.throttle.wpq_limit_at(now)
            if limit:
                entries = max(1, min(entries, limit))
        if len(self._wpq) >= entries:
            accept = self._wpq[len(self._wpq) - entries]
            self.stats.add(self._stat_wpq_stall, accept - now)
        else:
            accept = now
        drain = nbytes / bytes_per_cycle
        drain_end = max(accept, self._last_drain_end) + drain
        self._last_drain_end = drain_end
        self._wpq.append(drain_end)
        self.stats.add(self._stat_bytes_written, nbytes)
        self.stats.add(self._stat_writes)
        if self.tracer is not None:
            self.tracer.span(self.name, "write", accept, drain_end)
            self.tracer.counter(self.name, "wpq", now, float(len(self._wpq)))
        return accept

    def reset(self) -> None:
        self.read_channel.reset()
        self._wpq.clear()
        self._last_drain_end = 0.0
