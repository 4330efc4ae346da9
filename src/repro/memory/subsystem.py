"""The memory subsystem: routes line transactions to devices.

One instance per simulated system.  It owns the shared L2 tag cache, the
GDDR channels, the NVM controllers (with ADR WPQs), and — on PM-far
systems — the PCIe link.  All methods are time calculators (they return
completion times); the GPU layer schedules wake-ups off those times.

Persists are additionally recorded in an append-only :class:`PersistLog`
whose entries carry the durability (acceptance) time, so a crash at any
instant yields a well-defined durable PM image.
"""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING, Dict, Iterator, List, Mapping, NamedTuple, Optional, Tuple

from repro.common.config import GPUConfig, MemoryConfig, PMPlacement
from repro.common.units import gbps_to_bytes_per_cycle
from repro.memory.backing import BackingStore
from repro.memory.cache import TagCache
from repro.memory.devices import BandwidthChannel, NVMController, WriteAck
from repro.metrics.registry import MetricsRegistry
from repro.trace.tracer import Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.injector import FaultInjector

#: Sort key of the acceptance order: acceptance time, then issue sequence.
_ACCEPTANCE_ORDER = attrgetter("accept_time", "seq")

#: Hot-path stat names, indexed by ``is_pm`` (no per-access f-strings).
_L2_READ_HIT = ("l2.read_hit_vol", "l2.read_hit_pm")
_L2_READ_MISS = ("l2.read_miss_vol", "l2.read_miss_pm")


class PersistRecord(NamedTuple):
    """One persist accepted by the persistence domain (a tuple, built
    once per persist; a torn copy is made with ``_replace``)."""

    seq: int
    sm_id: int
    line_addr: int
    words: Mapping[int, int]
    accept_time: float


class PersistLog:
    """Append-only log of accepted persists, ordered by issue sequence."""

    def __init__(self) -> None:
        self._records: List[PersistRecord] = []

    def append(self, record: PersistRecord) -> None:
        self._records.append(record)

    def records(self) -> List[PersistRecord]:
        return list(self._records)

    def records_until(self, time: float) -> List[PersistRecord]:
        """Persists accepted by *time*, in acceptance order."""
        accepted = [r for r in self._records if r.accept_time <= time]
        accepted.sort(key=_ACCEPTANCE_ORDER)
        return accepted

    def boundary_times(self, end: Optional[float] = None) -> List[float]:
        """Distinct acceptance instants (sorted).  Crash images can only
        change at these times, so they are the complete set of
        interesting crash points."""
        times = {r.accept_time for r in self._records}
        if end is not None:
            times = {t for t in times if t <= end}
        return sorted(times)


class MemorySubsystem:
    """Shared L2 + device routing for one simulated system."""

    def __init__(
        self,
        memory: MemoryConfig,
        gpu: GPUConfig,
        backing: BackingStore,
        stats: MetricsRegistry,
        tracer: Optional[Tracer] = None,
        faults: "Optional[FaultInjector]" = None,
    ) -> None:
        self.config = memory
        self.gpu = gpu
        self.backing = backing
        self.stats = stats
        self.tracer = tracer
        self.faults = faults
        self.line_size = gpu.line_size
        self.l2 = TagCache("l2", gpu.l2_size, gpu.line_size, stats=stats)
        # Derived cycle constants, computed once per machine: the
        # routing and persist paths read them on every transaction.
        self._l2_latency = gpu.l2_latency
        self._pcie_latency = memory.pcie_latency
        self._parts = parts = memory.num_partitions
        self._far = memory.placement is PMPlacement.FAR

        per_part = 1.0 / parts
        gddr_latency = memory.gddr_latency
        gddr_bw = gbps_to_bytes_per_cycle(memory.gddr_bw_gbps) * per_part
        self.gddr = [
            BandwidthChannel(f"gddr{i}", gddr_latency, gddr_bw, stats, tracer)
            for i in range(parts)
        ]
        scale = memory.nvm_bw_scale
        nvm_read_bw = (
            gbps_to_bytes_per_cycle(memory.nvm_read_bw_gbps * scale) * per_part
        )
        nvm_write_bw = (
            gbps_to_bytes_per_cycle(memory.nvm_write_bw_gbps * scale) * per_part
        )
        nvm_latency = memory.nvm_latency
        self.nvm = [
            NVMController(
                f"nvm{i}",
                nvm_read_bw,
                nvm_write_bw,
                nvm_latency,
                memory.wpq_entries,
                stats,
                tracer,
            )
            for i in range(parts)
        ]
        # PCIe is full duplex: independent down (GPU->host) and up
        # (host->GPU) channels, each at the link bandwidth.
        pcie_bw = gbps_to_bytes_per_cycle(memory.pcie_bw_gbps)
        self.pcie_down = BandwidthChannel(
            "pcie", self._pcie_latency, pcie_bw, stats, tracer
        )
        self.pcie_up = BandwidthChannel(
            "pcie_up", self._pcie_latency, pcie_bw, stats, tracer
        )
        self.persist_log = PersistLog()
        self._persist_seq = 0
        # Timeline plans throttle the controllers directly: brownout
        # windows scale drain bandwidth, squeeze windows clamp WPQ
        # capacity.  (Imported here: repro.faults imports the system.)
        if faults is not None:
            from repro.faults.plans import TimelinePlan

            if isinstance(faults.plan, TimelinePlan):
                for controller in self.nvm:
                    controller.throttle = faults

    # ------------------------------------------------------------------
    # routing helpers
    # ------------------------------------------------------------------
    def _partition(self, line_addr: int) -> int:
        return (line_addr // self.line_size) % self._parts

    # ------------------------------------------------------------------
    # read path (L1 miss fills)
    # ------------------------------------------------------------------
    def fetch_line(self, now: float, line_addr: int, is_pm: bool) -> float:
        """Time at which a missing line's data arrives at the SM."""
        after_l2 = now + self._l2_latency
        if self.l2.access(line_addr, now):
            self.stats.add(_L2_READ_HIT[is_pm])
            return after_l2
        self.stats.add(_L2_READ_MISS[is_pm])
        part = self._partition(line_addr)
        if not is_pm:
            return self.gddr[part].transfer(after_l2, self.line_size)
        if self._far:
            at_host = self.pcie_down.transfer(after_l2, self.line_size)
            at_nvm = self.nvm[part].read(at_host, self.line_size)
            return self.pcie_up.transfer(at_nvm, self.line_size)
        return self.nvm[part].read(after_l2, self.line_size)

    # ------------------------------------------------------------------
    # volatile write-through
    # ------------------------------------------------------------------
    def write_volatile(self, now: float, line_addr: int, nbytes: int) -> float:
        """Timing of a write-through volatile store (fire-and-forget)."""
        after_l2 = now + self._l2_latency
        if self.l2.access(line_addr, now):
            self.stats.add("l2.write_hit_vol")
            return after_l2
        self.stats.add("l2.write_miss_vol")
        part = self._partition(line_addr)
        return self.gddr[part].transfer(after_l2, nbytes)

    # ------------------------------------------------------------------
    # persist path
    # ------------------------------------------------------------------
    def persist_line(
        self,
        now: float,
        sm_id: int,
        line_addr: int,
        words: Mapping[int, int],
    ) -> WriteAck:
        """Send one dirty PM line toward the persistence domain.

        Returns the acceptance (durability) time and the time at which
        the acknowledgement reaches the issuing SM.  Persists write
        through the shared L2 (the paper keeps no L2 persist buffer).

        With a fault injector attached, two things can diverge from the
        clean path: the NVM write may suffer transient failures (extra
        pre-acceptance latency, or escalation), and the ack the SM sees
        may be delayed or lost (``inf``).  The logged record is always
        durable at its WPQ acceptance.
        """
        nbytes = self.line_size
        self._persist_seq += 1
        seq = self._persist_seq
        injected = self.faults is not None
        delay = self.faults.persist_delay(seq, now=now) if injected else 0.0
        after_l2 = now + self._l2_latency
        self.l2.access(line_addr, now)
        part = self._partition(line_addr)
        if self._far:
            at_host = self.pcie_down.transfer(after_l2, nbytes)
            accept = self.nvm[part].write(at_host + delay, nbytes)
            ack = accept + self._pcie_latency
        else:
            accept = self.nvm[part].write(after_l2 + delay, nbytes)
            ack = accept + self._l2_latency
        if injected:
            ack = self.faults.transform_ack(seq, accept, ack)
        self.persist_log.append(
            PersistRecord(seq, sm_id, line_addr, dict(words), accept)
        )
        self.stats.add("persist.lines")
        self.stats.add("persist.bytes", nbytes)
        return WriteAck(accept, ack)

    # ------------------------------------------------------------------
    # crash support
    # ------------------------------------------------------------------
    @property
    def tearing_faults(self) -> "Optional[FaultInjector]":
        """The fault injector if its plan tears lines, else None.  Only
        under one can a crash image differ from the one at the last
        acceptance boundary before it: a line still in the WPQ window
        may tear, and stops tearing once it leaves the window."""
        faults = self.faults
        return faults if faults is not None and faults.plan.tears else None

    def crash_image(self, time: float) -> Dict[int, int]:
        """The durable PM image if power fails at *time*."""
        return next(self.crash_images([time]))[0]

    def crash_images(
        self, times: List[float]
    ) -> Iterator[Tuple[Dict[int, int], Optional[List[PersistRecord]]]]:
        """The durable PM image at each of *times* (ascending), in one
        pass over the log in acceptance order.

        Yields ``(image, landed)``: *image* (updated in place) overlays
        the host-initialized durable words with every persist accepted
        by that instant; *landed* lists the records accepted since the
        previous instant.  A tearing fault plan may tear lines still in
        the WPQ at the crash, so under one each image is rebuilt from its
        accepted prefix and *landed* is None."""
        records = self.persist_log.records_until(times[-1]) if times else []
        faults = self.tearing_faults
        image = dict(self.backing.durable)
        done = 0
        for time in times:
            start = done
            while done < len(records) and records[done].accept_time <= time:
                done += 1
            landed = records[start:done]
            if faults is not None:
                image = dict(self.backing.durable)
                landed = faults.torn_records(records[:done], time)
            for record in landed:
                image.update(record.words)
            yield image, None if faults else landed
