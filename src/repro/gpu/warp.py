"""Warp runtime state and the kernel-facing warp context.

:class:`WarpCtx` is what kernel generator functions receive: lane ids,
global thread ids, and constructors for every warp-level operation.
:class:`Warp` is the SM-side execution record wrapping the generator.
"""

from __future__ import annotations

import enum
from functools import cached_property
from typing import Any, Dict, Generator, Optional, Sequence

import numpy as np

from repro.common.config import Scope
from repro.gpu.ops import (
    AtomicAdd,
    BlockBarrier,
    Compute,
    DFence,
    Ld,
    OFence,
    Op,
    PAcq,
    PRel,
    St,
    ThreadFence,
    _as_lanes,
    _as_mask,
)


#: Shared read-only lane-id vectors, one per warp size: every warp's
#: ``lane`` is the same array, so a warp costs no numpy allocation until
#: its kernel derives something from it.
_LANES: Dict[int, np.ndarray] = {}


def _lane_ids(warp_size: int) -> np.ndarray:
    lane = _LANES.get(warp_size)
    if lane is None:
        lane = np.arange(warp_size, dtype=np.int64)
        lane.setflags(write=False)
        _LANES[warp_size] = lane
    return lane


class WarpState(enum.Enum):
    READY = "ready"
    BLOCKED = "blocked"
    AT_BARRIER = "at_barrier"
    DONE = "done"


class WarpCtx:
    """Kernel-visible view of one warp.

    Kernels are written at warp granularity: every lane executes the same
    operation on its own data, predicated by an active-lane ``mask`` —
    the SIMT model.  Example::

        def kernel(w: WarpCtx) -> KernelGen:
            values = yield w.ld(inp.base + 4 * w.tid)
            yield w.st(out.base + 4 * w.tid, values * 2, mask=w.tid < n)
            yield w.ofence()
    """

    def __init__(
        self,
        block_id: int,
        warp_in_block: int,
        warp_size: int,
        block_size: int,
        grid_blocks: int,
    ) -> None:
        self.block_id = block_id
        self.warp_in_block = warp_in_block
        self.warp_size = warp_size
        self.block_size = block_size
        self.grid_blocks = grid_blocks
        #: Lane id of each lane (shared, read-only).
        self.lane = _lane_ids(warp_size)

    @cached_property
    def tid(self) -> np.ndarray:
        """Global thread id of each lane (built on first use)."""
        return (
            self.block_id * self.block_size
            + self.warp_in_block * self.warp_size
            + self.lane
        )

    @property
    def nthreads(self) -> int:
        return self.grid_blocks * self.block_size

    @property
    def warps_per_block(self) -> int:
        return self.block_size // self.warp_size

    @property
    def is_block_leader(self) -> bool:
        """True for the first warp of the block (lane 0 = thread leader)."""
        return self.warp_in_block == 0

    # ------------------------------------------------------------------
    # operation constructors
    # ------------------------------------------------------------------
    def ld(
        self, addrs: Sequence[int] | np.ndarray | int, mask: Optional[Sequence[bool]] = None
    ) -> Ld:
        return Ld(_as_lanes(addrs, self.warp_size), _as_mask(mask, self.warp_size))

    def st(
        self,
        addrs: Sequence[int] | np.ndarray | int,
        values: Sequence[int] | np.ndarray | int,
        mask: Optional[Sequence[bool]] = None,
    ) -> St:
        return St(
            _as_lanes(addrs, self.warp_size),
            _as_lanes(values, self.warp_size),
            _as_mask(mask, self.warp_size),
        )

    def atomic_add(
        self,
        addrs: Sequence[int] | np.ndarray | int,
        values: Sequence[int] | np.ndarray | int,
        mask: Optional[Sequence[bool]] = None,
    ) -> AtomicAdd:
        return AtomicAdd(
            _as_lanes(addrs, self.warp_size),
            _as_lanes(values, self.warp_size),
            _as_mask(mask, self.warp_size),
        )

    def compute(self, cycles: int = 4) -> Compute:
        return Compute(cycles)

    def ofence(self) -> OFence:
        return OFence()

    def dfence(self) -> DFence:
        return DFence()

    def pacq(
        self,
        addr: int,
        scope: Scope = Scope.BLOCK,
        *,
        spin: bool = False,
        at_least: Optional[int] = None,
    ) -> PAcq:
        """A persist acquire of the flag at *addr*.  With ``spin=True``
        the SM retries it until the flag reads non-zero, with
        ``at_least=k`` (``k >= 1``) until it reads at least *k*; either
        way the op returns the value that passed.  Plain, it returns the
        value read, 0 included."""
        if at_least is not None:
            if at_least < 1:
                raise ValueError(f"at_least must be >= 1, got {at_least}")
            return PAcq(int(addr), scope, True, int(at_least))
        return PAcq(int(addr), scope, spin)

    def prel(self, addr: int, value: int, scope: Scope = Scope.BLOCK) -> PRel:
        return PRel(int(addr), int(value), scope)

    def threadfence(self, scope: Scope = Scope.DEVICE) -> ThreadFence:
        return ThreadFence(scope)

    def sync(self) -> BlockBarrier:
        return BlockBarrier()


#: Type of a kernel body: a generator yielding ops, receiving results.
KernelGen = Generator[Op, Any, None]


class Warp:
    """SM-side execution record of one warp."""

    __slots__ = (
        "slot",
        "ctx",
        "gen",
        "state",
        "ready_time",
        "send_value",
        "retry_op",
        "block_key",
    )

    def __init__(self, slot: int, ctx: WarpCtx, gen: KernelGen, block_key: int) -> None:
        self.slot = slot
        self.ctx = ctx
        self.gen = gen
        self.state = WarpState.READY
        self.ready_time = 0.0
        #: Value to send into the generator on next resume.
        self.send_value: Any = None
        #: An op that must be re-processed instead of resuming the
        #: generator (ops stalled by the persistency model, spinning
        #: acquires whose exit test failed).
        self.retry_op: Optional[Op] = None
        self.block_key = block_key

    def __repr__(self) -> str:
        return (
            f"Warp(slot={self.slot}, block={self.ctx.block_id}, "
            f"w{self.ctx.warp_in_block}, {self.state.value})"
        )
