"""Public facade: a GPU + NVM system you can allocate on, launch kernels
on, crash, and reboot.

Typical use::

    from repro import GPUSystem, small_system, ModelName

    sys = GPUSystem(small_system(ModelName.SBRP))
    data = sys.pm_create("my-data", 4096)
    result = sys.launch(my_kernel, grid_blocks=4, args=(data,))
    image = sys.crash()                    # power failure "now"
    sys2 = GPUSystem.reboot(sys, image)    # fresh machine, durable PM
    recovered = sys2.pm_open("my-data")
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.config import SystemConfig
from repro.common.errors import SimulationError
from repro.memory.address_space import AddressSpace, Allocation
from repro.memory.backing import check_word_aligned
from repro.memory.namespace import NamespaceEntry, NamespaceTable
from repro.gpu.device import GPU, KernelResult
from repro.metrics.registry import MetricsRegistry
from repro.trace.tracer import Tracer


def _word_addrs(alloc: Allocation, count: Optional[int]) -> range:
    """Addresses of the first *count* words of *alloc* (default: all of
    them), bounds-checked once: a count past the region raises the
    ``MemoryError_`` that ``alloc.word`` gives its first bad index."""
    n = count if count is not None else alloc.size // 4
    inside = -(-alloc.size // 4)  # words that start inside the region
    if n > inside:
        alloc.word(inside)  # raises
    return range(alloc.base, alloc.base + 4 * n, 4)


@dataclass(frozen=True)
class CrashImage:
    """Everything that survives a power failure."""

    time: float
    pm: Dict[int, int]
    namespace: Dict[str, NamespaceEntry]


class GPUSystem:
    """One simulated machine: GPU, memory system, persistency model."""

    def __init__(
        self,
        config: SystemConfig,
        pm_image: Optional[CrashImage] = None,
        max_cycles: float = 2e9,
        trace: bool = False,
        faults: Optional[Any] = None,
        watchdog_events: Optional[int] = None,
        model_factory: Optional[Any] = None,
        metrics: "MetricsRegistry | bool | None" = None,
    ) -> None:
        self.config = config.validate()
        #: The one registry every component records into; metered
        #: (histograms on) when constructed with ``metrics=``.
        self.stats = self._resolve_metrics(metrics)
        self.space = AddressSpace(alignment=config.gpu.line_size)
        self.namespace = NamespaceTable(self.space)
        #: The structured tracer, or None on an untraced machine.
        self.tracer = Tracer() if trace else None
        #: Fault injector (``repro.faults``) threaded through to the
        #: memory subsystem and persistency models; None = clean run.
        self.faults = faults
        self.gpu = GPU(
            config,
            stats=self.stats,
            max_cycles=max_cycles,
            tracer=self.tracer,
            faults=faults,
            watchdog_events=watchdog_events,
            model_factory=model_factory,
        )
        self.kernel_results: List[KernelResult] = []
        if pm_image is not None:
            self.gpu.backing.load_pm_image(pm_image.pm)
            self.namespace.restore(pm_image.namespace, self.space)

    @staticmethod
    def _resolve_metrics(
        metrics: "MetricsRegistry | bool | None",
    ) -> MetricsRegistry:
        """Accept a MetricsRegistry or a bool; default: unmetered.  A
        passed-in registry becomes the system's ``stats``."""
        if metrics is None or metrics is False:
            return MetricsRegistry(metered=False)
        if metrics is True:
            return MetricsRegistry()
        if isinstance(metrics, MetricsRegistry):
            return metrics
        raise SimulationError(f"unsupported metrics argument: {metrics!r}")

    # ------------------------------------------------------------------
    # memory management
    # ------------------------------------------------------------------
    def malloc(self, size: int) -> Allocation:
        """Allocate volatile (GDDR-backed) memory."""
        return self.space.alloc(size, persistent=False)

    def pm_create(self, name: str, size: int) -> Allocation:
        """Allocate a new named PM region."""
        return self.namespace.create(name, size)

    def pm_open(self, name: str) -> Allocation:
        """Re-open a named PM region (after a reboot)."""
        return self.namespace.open(name)

    def pm_exists(self, name: str) -> bool:
        return self.namespace.exists(name)

    # ------------------------------------------------------------------
    # host-side data movement (CPU writes are immediately durable for
    # PM: the host flushes its own stores before launching kernels)
    # ------------------------------------------------------------------
    def host_write(self, addr: int, value: int) -> None:
        from repro.memory.address_space import is_pm_addr

        self.gpu.backing.write(addr, value)
        if is_pm_addr(addr):
            self.gpu.backing.durable[addr] = int(value)

    def host_write_words(self, alloc: Allocation, values: Sequence[int]) -> None:
        """memcpy host->device of 4-byte words from region start."""
        if isinstance(values, np.ndarray):
            values = values.tolist()  # C-speed, yields Python ints
        elif any(type(v) is not int for v in values):
            values = [int(v) for v in values]
        if not values:
            return
        alloc.word(len(values) - 1)  # bounds check up front
        base = alloc.base
        words = dict(zip(range(base, base + 4 * len(values), 4), values))
        self.gpu.backing.visible.update(words)
        if alloc.persistent:
            self.gpu.backing.durable.update(words)

    def host_fill(self, alloc: Allocation, value: int) -> None:
        """memset of every word of the region."""
        self.host_write_words(alloc, [value] * (alloc.size // 4))

    def read_word(self, addr: int) -> int:
        """Read the (globally visible) value of one word."""
        return self.gpu.backing.read(addr)

    def read_words(self, alloc: Allocation, count: Optional[int] = None) -> np.ndarray:
        addrs = _word_addrs(alloc, count)
        if addrs:
            check_word_aligned(alloc.base)
        return np.fromiter(
            map(self.gpu.backing.visible.get, addrs, repeat(0)),
            dtype=np.int64,
            count=len(addrs),
        )

    def durable_words(
        self, alloc: Allocation, count: Optional[int] = None
    ) -> np.ndarray:
        """Read the *durable* (crash-surviving) value of the region."""
        image = self.gpu.subsystem.crash_image(self.now)
        addrs = _word_addrs(alloc, count)
        return np.fromiter(
            map(image.get, addrs, repeat(0)), dtype=np.int64, count=len(addrs)
        )

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def launch(
        self,
        kernel,
        grid_blocks: int,
        args: tuple = (),
        kwargs: Optional[dict] = None,
        name: Optional[str] = None,
        drain: bool = False,
    ) -> KernelResult:
        result = self.gpu.launch(kernel, grid_blocks, args, kwargs, name, drain)
        self.kernel_results.append(result)
        return result

    def sync(self) -> float:
        """Drain all buffered persists (host synchronize-and-persist)."""
        return self.gpu.sync()

    @property
    def now(self) -> float:
        return self.gpu.engine.now

    def total_cycles(self) -> float:
        return sum(r.cycles for r in self.kernel_results)

    # ------------------------------------------------------------------
    # crash / reboot
    # ------------------------------------------------------------------
    def crash(self, at: Optional[float] = None) -> CrashImage:
        """Snapshot the durable PM image as of time *at* (default: now).

        Crashing at a past instant is allowed — the persist log records
        when every persist became durable, so any point of the finished
        execution can be examined.
        """
        time = self.now if at is None else at
        if time > self.now:
            raise SimulationError(
                f"cannot crash at t={time}: simulation only reached {self.now}"
            )
        return CrashImage(
            time=time,
            pm=self.gpu.subsystem.crash_image(time),
            namespace=self.namespace.export(),
        )

    @staticmethod
    def reboot(
        previous: "GPUSystem",
        image: CrashImage,
        config: Optional[SystemConfig] = None,
    ) -> "GPUSystem":
        """Boot a fresh machine with *image* as its PM contents."""
        return GPUSystem(config or previous.config, pm_image=image)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def stat(self, name: str, default: float = 0.0) -> float:
        return self.stats.get(name, default)

    def metrics_snapshot(self) -> Dict[str, Any]:
        """Counters and histogram summaries of the system's registry."""
        return self.stats.build_snapshot()

    def write_trace(self, path: str) -> None:
        """Export the run's trace as Chrome/Perfetto ``trace.json``."""
        from repro.trace.perfetto import write_chrome_trace

        if self.tracer is None:
            raise SimulationError(
                "tracing is disabled; construct with GPUSystem(cfg, trace=True)"
            )
        write_chrome_trace(self.tracer, path, config=self.config, cycles=self.now)

    def write_trace_csv(self, path: str, interval: Optional[float] = None) -> None:
        """Export counter tracks (PB occupancy, ACTR, WPQ depth) as CSV."""
        from repro.trace.csvout import write_counter_csv

        if self.tracer is None:
            raise SimulationError(
                "tracing is disabled; construct with GPUSystem(cfg, trace=True)"
            )
        write_counter_csv(self.tracer, path, interval=interval)

    def trace_report(self) -> str:
        """ASCII profile: stall attribution, persist lifecycle, devices."""
        from repro.trace.report import profile_tracer

        if self.tracer is None:
            raise SimulationError(
                "tracing is disabled; construct with GPUSystem(cfg, trace=True)"
            )
        return profile_tracer(self.tracer, config=self.config, cycles=self.now)

    def __repr__(self) -> str:
        return f"GPUSystem({self.config.label}, t={self.now:.0f})"
