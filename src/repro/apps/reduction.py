"""Reduction: recoverable parallel sum (Figures 2 and 3 of the paper).

The input array lives in GDDR; partial sums and the output live on PM so
the computation can resume after a crash instead of restarting.  The
kernel is the paper's Figure 3 structure lifted to warp granularity:

* every warp sums its input segment and, when it retires from the
  reduction tree, persists its partial into ``pArr`` exactly once and
  releases a **block-scope** flag (``pRel_block``);
* surviving warps acquire their partner's flag (``pAcq_block``), read
  the partner's persisted partial, and fold it in — the intra-block
  inter-thread PMO;
* the first warp of each block persists the block sum and releases a
  **device-scope** flag; threadblock 0 acquires every block's flag
  (``pAcq_dev``) and persists the final sum — the inter-block PMO whose
  scope the paper's Section 5.3 bug discussion revolves around.

Native recovery: a warp whose ``pArr`` slot is non-EMPTY skips its
computation and immediately re-releases its flag (the flags are
volatile and do not survive the crash).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.base import App, AppParams, PMMapper, RunOutcome
from repro.apps.common import spin_pacq
from repro.common.config import Scope
from repro.system import GPUSystem


@dataclass(frozen=True)
class ReductionParams(AppParams):
    #: Input elements per thread (the array is blocks*block_size*per_thread).
    per_thread: int = 4
    #: Threadblocks (paper sums ~4M ints; scale via blocks/per_thread).
    blocks: int = 4
    #: ALU cost of accumulating one element.
    add_cycles: int = 2
    #: If True, the final inter-block release uses BLOCK scope instead of
    #: DEVICE scope — the Section 5.3 *scoped persistency bug*, kept as a
    #: demonstrable option for tests and the bug-demo example.
    inject_scope_bug: bool = False


class Reduction(App):
    """Tree reduction with block- and device-scope release/acquire."""

    name = "reduction"
    scoped_pmo = "blk/dev-interthread"
    recovery_style = "native"

    def __init__(self, **overrides) -> None:
        self.params = ReductionParams(**overrides)

    # ------------------------------------------------------------------
    # memory layout
    # ------------------------------------------------------------------
    def attach(self, system: GPUSystem, pm: PMMapper) -> None:
        p = self.params
        gpu = system.config.gpu
        self.warps_per_block = gpu.warps_per_block
        self.n_warps = p.blocks * self.warps_per_block
        self.n_elems = p.blocks * gpu.threads_per_block * p.per_thread
        self.input = system.malloc(4 * self.n_elems)
        # One PM line per partial (as the paper's per-thread pArr gives
        # each warp its own line): padding avoids false same-line
        # conflicts between different warps' single persists.
        self.parr = pm("red.parr", 4 * 32 * self.n_warps)
        self.pblk = pm("red.pblk", 4 * 32 * p.blocks)
        self.out = pm("red.out", 4)
        self.wflags = system.malloc(4 * self.n_warps)
        self.bflags = system.malloc(4 * p.blocks)
        system.host_write_words(self.input, self.input_values())

    def input_values(self) -> np.ndarray:
        return (np.arange(self.n_elems) * 13) % 97 + 1

    # ------------------------------------------------------------------
    # kernel
    # ------------------------------------------------------------------
    def _kernel(self, w, p: ReductionParams):
        wpb = w.warps_per_block
        gwarp = w.block_id * wpb + w.warp_in_block
        my_flag = self.wflags.base + 4 * gwarp
        leader = w.lane == 0

        me = w.warp_in_block
        seg = self.parr.base + 4 * 32 * gwarp  # this warp's 32 pArr words
        # Warp-invariant lane vectors, hoisted (value-for-value identical
        # to recomputing them at each yield).
        lane4 = 4 * w.lane
        my_words = seg + lane4
        parr_base = self.parr.base
        add_op = w.compute(p.add_cycles)  # reused: the SM only reads it
        persisted = yield w.ld(my_words)
        already_done = int(persisted[0]) != 0
        lanes = np.asarray(persisted, dtype=np.int64)
        if already_done:
            # Native recovery (Figure 3, line 3): this warp's persisted
            # partials are final; just re-release for any consumers.
            yield w.prel(my_flag, 1, Scope.BLOCK)
            if me != 0:
                return
        else:
            # Each lane accumulates its per_thread input elements
            # (pArr is per-thread, as in Figure 2).
            lanes = np.zeros(w.warp_size, dtype=np.int64)
            in_base = self.input.base + 4 * p.per_thread * w.tid
            for j in range(p.per_thread):
                vals = yield w.ld(in_base + 4 * j)
                lanes += vals
                yield add_op

            # Reduction tree over the block's warps: the retiring warp
            # persists its 32 lane-partials (one PM line) once; the
            # survivor acquires and folds the partner's line in.  Under
            # the epoch model every round's barrier invalidates these
            # lines, forcing NVM re-reads — the Figure 6 reduction gap.
            active_warps = wpb
            while active_warps > 1:
                half = active_warps // 2
                if me >= half:
                    # Retire: persist once, release at block scope, exit.
                    yield w.st(my_words, lanes)
                    yield w.prel(my_flag, 1, Scope.BLOCK)
                    return
                partner = gwarp + half
                yield from spin_pacq(
                    w, self.wflags.base + 4 * partner, Scope.BLOCK
                )
                part = yield w.ld(parr_base + 4 * 32 * partner + lane4)
                lanes = lanes + np.asarray(part, dtype=np.int64)
                yield add_op
                active_warps = half

        my_sum = int(lanes.sum())
        yield w.compute(5 * p.add_cycles)  # final warp-shuffle reduce

        # Warp 0 reaches here with the block sum (computed or recovered).
        done = yield w.ld(self.pblk.base + 4 * 32 * w.block_id, mask=leader)
        if int(done[0]) == 0:
            if not already_done:
                yield w.st(my_words, lanes)
                yield w.prel(my_flag, 1, Scope.BLOCK)
            yield w.st(self.pblk.base + 4 * 32 * w.block_id, my_sum, mask=leader)
        elif not already_done:
            my_sum = int(done[0])
            yield w.prel(my_flag, 1, Scope.BLOCK)
        release_scope = Scope.BLOCK if p.inject_scope_bug else Scope.DEVICE
        yield w.prel(self.bflags.base + 4 * w.block_id, 1, release_scope)

        if w.block_id != 0:
            return
        # Threadblock 0 folds every block's sum into the final output.
        final = yield w.ld(self.out.base, mask=leader)
        if int(final[0]) != 0:
            return
        total = my_sum
        for blk in range(1, w.grid_blocks):
            yield from spin_pacq(w, self.bflags.base + 4 * blk, Scope.DEVICE)
            part = yield w.ld(self.pblk.base + 4 * 32 * blk, mask=leader)
            total += int(part[0])
            yield add_op
        yield w.st(self.out.base, total, mask=leader)
        yield w.dfence()

    # ------------------------------------------------------------------
    # driver
    # ------------------------------------------------------------------
    def run(self, system: GPUSystem) -> RunOutcome:
        result = system.launch(
            self._kernel, self.params.blocks, kwargs={"p": self.params}, name="red"
        )
        return RunOutcome([result])

    def recover(self, system: GPUSystem) -> RunOutcome:
        result = system.launch(
            self._kernel,
            self.params.blocks,
            kwargs={"p": self.params},
            name="red.recover",
        )
        return RunOutcome([result])

    # ------------------------------------------------------------------
    # checking
    # ------------------------------------------------------------------
    def expected(self) -> int:
        return int(self.input_values().sum())

    def check(self, system: GPUSystem, complete: bool = True) -> None:
        p = self.params
        wpb = self.warps_per_block
        lane_partials = (
            self.input_values()
            .reshape(p.blocks, wpb, 32, p.per_thread)
            .sum(axis=3)
            .astype(np.int64)
        )
        # Every persisted pArr line must equal the lane vector its warp
        # held when it retired from the tree.
        parr = system.read_words(self.parr, 32 * self.n_warps).reshape(
            p.blocks, wpb, 32
        )
        pblk = system.read_words(self.pblk, 32 * p.blocks)[::32]
        for blk in range(p.blocks):
            subtree = self._subtree_vectors(lane_partials[blk])
            stored = parr[blk]
            written = stored[:, 0] != 0
            bad = written & ~(stored == subtree).all(axis=1)
            self.require(
                not bad.any(), f"reduction: wrong partial vector in block {blk}"
            )
            self.require(
                pblk[blk] in (0, int(lane_partials[blk].sum())),
                f"reduction: wrong block sum for block {blk}",
            )
        out = int(system.read_word(self.out.base))
        self.require(
            out in (0, self.expected()), f"reduction: wrong final sum {out}"
        )
        if complete:
            self.require(out == self.expected(), "reduction: final sum missing")

    def _subtree_vectors(self, lane_partials: np.ndarray) -> np.ndarray:
        """The lane vector each warp persists: its accumulated lanes at
        the moment it retires from the tree (warp 0: the final vector)."""
        wpb = lane_partials.shape[0]
        result = np.zeros_like(lane_partials)
        acc = lane_partials.copy()
        active = wpb
        while active > 1:
            half = active // 2
            for me in range(half, active):
                result[me] = acc[me]
            for me in range(half):
                acc[me] += acc[me + half]
            active = half
        result[0] = acc[0]
        return result
