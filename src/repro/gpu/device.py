"""The GPU device: block dispatch, kernel launch, drain at kernel end.

A kernel launch queues its grid's threadblocks; each SM runs as many
concurrent blocks as its warp slots allow (one, with the paper's 1024
threads/block and 32 resident warps).  A launch completes when every
block has retired **and** every buffered persist has drained — kernel
boundaries are durability points under all three models, matching GPM's
``gpm_persist`` discipline and giving a fair end-of-kernel comparison.
"""

from __future__ import annotations

import itertools
import types
import weakref
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional

from collections import deque

from repro.common.config import SystemConfig
from repro.common.errors import SimulationError
from repro.memory.backing import BackingStore
from repro.memory.subsystem import MemorySubsystem
from repro.gpu.engine import Engine
from repro.gpu.sm import SM
from repro.gpu.warp import Warp, WarpCtx, WarpState
from repro.metrics.registry import MetricsRegistry
from repro.persistency import build_model
from repro.trace.tracer import Tracer

KernelFn = Callable[..., Any]


@dataclass(frozen=True)
class KernelResult:
    """Timing and bookkeeping of one kernel launch."""

    name: str
    start: float
    end: float
    blocks: int

    @property
    def cycles(self) -> float:
        return self.end - self.start


@dataclass
class _Block:
    key: int
    block_id: int
    warps_remaining: int


class GPU:
    """One simulated GPU attached to a memory subsystem."""

    def __init__(
        self,
        config: SystemConfig,
        backing: Optional[BackingStore] = None,
        stats: Optional[MetricsRegistry] = None,
        max_cycles: float = 2e9,
        tracer: Optional[Tracer] = None,
        faults: Optional[Any] = None,
        watchdog_events: Optional[int] = None,
        model_factory: Optional[Callable[..., Any]] = None,
    ) -> None:
        # *config* is validated by the GPUSystem that builds this GPU.
        self.config = config
        self.stats = stats if stats is not None else MetricsRegistry()
        self.backing = backing if backing is not None else BackingStore()
        self.tracer = tracer
        self.engine = Engine(
            max_cycles=max_cycles,
            stats=self.stats,
            watchdog_events=watchdog_events,
        )
        # Bound to a weak proxy: the engine is the GPU's, and a strong
        # bound method would make every machine a reference cycle.
        self.engine.watchdog_diagnostics = types.MethodType(
            GPU._watchdog_diagnostics, weakref.proxy(self)
        )
        self.subsystem = MemorySubsystem(
            config.memory, config.gpu, self.backing, self.stats, self.tracer,
            faults=faults,
        )
        # model_factory overrides the registered model class — the
        # conformance checker's mutation-teeth hook (repro.check.mutants).
        if model_factory is not None:
            self.model = model_factory(config, self.stats)
        else:
            self.model = build_model(config, self.stats)
        self.sms = [SM(i, self) for i in range(config.gpu.num_sms)]
        self._block_keys = itertools.count()
        self._pending_blocks: Deque[int] = deque()
        self._live_blocks: Dict[int, _Block] = {}
        self._launch_ctx: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------
    # kernel launch
    # ------------------------------------------------------------------
    def launch(
        self,
        kernel: KernelFn,
        grid_blocks: int,
        args: tuple = (),
        kwargs: Optional[Dict[str, Any]] = None,
        name: Optional[str] = None,
        drain: bool = False,
    ) -> KernelResult:
        """Run *kernel* over *grid_blocks* threadblocks to completion.

        The kernel is a generator function ``kernel(w: WarpCtx, *args,
        **kwargs)``; every warp of every block runs one instance.  With
        ``drain=True`` the launch additionally waits for every buffered
        persist to reach the persistence domain (host sync semantics).
        """
        if self._launch_ctx is not None:
            raise SimulationError("a kernel launch is already in progress")
        if grid_blocks < 1:
            raise SimulationError("grid must have at least one block")
        start = self.engine.now
        self._launch_ctx = {
            "kernel": kernel,
            "args": args,
            "kwargs": kwargs or {},
            "blocks_done": 0,
            "grid_blocks": grid_blocks,
        }
        self._pending_blocks = deque(range(grid_blocks))
        for sm in self.sms:
            self._fill_sm(sm, start)
        # on_warp_done raises the engine's stop flag when the launch
        # context clears, sparing a predicate call per event.
        self.engine.run()
        if self._launch_ctx is not None:
            blocked = [
                (sm.sm_id, repr(w))
                for sm in self.sms
                for w in sm.warps.values()
                if w.state is not WarpState.DONE
            ]
            raise SimulationError(
                f"kernel deadlocked with {len(blocked)} unfinished warps: "
                f"{blocked[:8]}"
            )
        # Kernel completion = last warp retired.  Buffered persists keep
        # draining in the background (crash consistency never depended on
        # kernel boundaries being durability points); programs that need
        # durability use dFence in-kernel or host-side sync().
        self.stats.add("kernel.launches")
        if drain:
            self.sync()
        result = KernelResult(
            name=name or getattr(kernel, "__name__", "kernel"),
            start=start,
            end=self.engine.now,
            blocks=grid_blocks,
        )
        if self.tracer is not None:
            self.tracer.span(
                "gpu", result.name, start, result.end, {"blocks": grid_blocks}
            )
        return result

    def sync(self) -> float:
        """Host-side synchronize-and-persist: drain every SM's buffered
        persists to the persistence domain (event-driven, so SMs drain
        concurrently).  Returns the completion time.

        The run stops in the event after which every SM is first
        drained: the model raises the engine's stop flag there (see
        :meth:`~repro.persistency.base.PersistencyModel.begin_drain`),
        so no per-event predicate runs.  A machine already drained
        here pops no event."""
        engine, model, sms = self.engine, self.model, self.sms
        for sm in sms:
            model.begin_drain(sm, engine.now)
        drained = model.drained
        if all(drained(sm, engine.now) for sm in sms):
            engine._stop = True
        engine.run()
        undrained = [sm.sm_id for sm in sms if not drained(sm, engine.now)]
        if undrained:
            raise SimulationError(
                f"drain stalled on SMs {undrained}: no events left but "
                "persists remain buffered"
            )
        for sm in sms:
            model.finish_drain(sm)
        return engine.now

    # ------------------------------------------------------------------
    # block dispatch
    # ------------------------------------------------------------------
    def _fill_sm(self, sm, now: float) -> None:
        """Dispatch queued blocks onto free warp slots of *sm*."""
        pending = self._pending_blocks
        if not pending:
            return
        launch = self._launch_ctx
        assert launch is not None
        kernel, args, kwargs = launch["kernel"], launch["args"], launch["kwargs"]
        grid_blocks = launch["grid_blocks"]
        gpu_cfg = self.config.gpu
        warps_per_block = gpu_cfg.warps_per_block
        max_warps = gpu_cfg.max_warps_per_sm
        warp_size = gpu_cfg.warp_size
        threads_per_block = gpu_cfg.threads_per_block
        while pending:
            if len(sm.warps) + warps_per_block > max_warps:
                break
            block_id = pending.popleft()
            key = next(self._block_keys)
            self._live_blocks[key] = _Block(key, block_id, warps_per_block)
            base_slot = self._free_slot_base(sm, warps_per_block)
            warps = []
            for w in range(warps_per_block):
                ctx = WarpCtx(block_id, w, warp_size, threads_per_block, grid_blocks)
                warps.append(
                    Warp(base_slot + w, ctx, kernel(ctx, *args, **kwargs), key)
                )
            sm.add_block(warps, now)
            self.stats.add("kernel.blocks_dispatched")

    def _free_slot_base(self, sm, needed: int) -> int:
        """First run of *needed* consecutive free warp slots."""
        occupied = sm.warps
        run = 0
        for slot in range(self.config.gpu.max_warps_per_sm):
            if slot in occupied:
                run = 0
                continue
            run += 1
            if run == needed:
                return slot - needed + 1
        raise SimulationError("no free warp slots despite capacity check")

    def _watchdog_diagnostics(self) -> Dict[str, float]:
        """Queue depths for :class:`LivelockError` messages: how many
        warps each SM still holds and how many blocks wait for slots."""
        depths: Dict[str, float] = {
            "blocks.pending": float(len(self._pending_blocks)),
            "blocks.live": float(len(self._live_blocks)),
        }
        for sm in self.sms:
            live = [w for w in sm.warps.values() if w.state is not WarpState.DONE]
            if live:
                depths[f"sm{sm.sm_id}.live_warps"] = float(len(live))
        return depths

    def on_warp_done(self, sm, warp: Warp, now: float) -> None:
        """SM callback: a warp's generator finished."""
        self.engine.note_progress()
        block = self._live_blocks.get(warp.block_key)
        if block is None:
            raise SimulationError(f"warp finished for unknown block {warp.block_key}")
        block.warps_remaining -= 1
        if block.warps_remaining > 0:
            return
        del self._live_blocks[warp.block_key]
        sm.remove_block(warp.block_key)
        assert self._launch_ctx is not None
        self._launch_ctx["blocks_done"] += 1
        if self._launch_ctx["blocks_done"] == self._launch_ctx["grid_blocks"]:
            self._launch_ctx = None
            self.engine._stop = True
            return
        self._fill_sm(sm, now)
