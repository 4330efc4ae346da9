"""Scan: recoverable inclusive prefix sum (Table 2, row 6).

Each threadblock computes the inclusive scan of its PM-resident segment
iteratively (Hillis-Steele over warp-level partials).  A warp's round-*r*
output depends on another warp's round-*(r-1)* output, so every round
needs intra-threadblock PMO — expressed with block-scope pAcq/pRel, the
app with the purest block-inter-thread pattern in the paper.

Rounds write to distinct PM buffers (one per round), so every location
persists exactly once; during recovery the computation resumes from the
last fully persisted round (native recovery, "resumes from the persisted
array contents").

Because every round reads the previous round's PM buffer, L1 retention
across rounds is where SBRP wins; under the epoch model every barrier
invalidates those lines and each round re-reads PM (the paper notes
scan's many accesses to bandwidth-limited NVM cap its speedup).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.apps.base import App, AppParams, PMMapper, RunOutcome
from repro.apps.common import spin_pacq
from repro.common.config import Scope
from repro.system import GPUSystem


@dataclass(frozen=True)
class ScanParams(AppParams):
    #: Threadblocks (each scans its own segment; paper: ~120K ints).
    blocks: int = 4
    #: ALU cost per element combine.
    add_cycles: int = 2


class Scan(App):
    """Blocked Hillis-Steele scan with block-scope release/acquire."""

    name = "scan"
    scoped_pmo = "blk-interthread"
    recovery_style = "native"

    def __init__(self, **overrides) -> None:
        self.params = ScanParams(**overrides)

    # ------------------------------------------------------------------
    # memory layout
    # ------------------------------------------------------------------
    def attach(self, system: GPUSystem, pm: PMMapper) -> None:
        gpu = system.config.gpu
        self.wpb = gpu.warps_per_block
        if self.wpb & (self.wpb - 1):
            raise ValueError("scan needs a power-of-two warps/block")
        self.seg = gpu.threads_per_block
        self.n = self.params.blocks * self.seg
        self.rounds = max(1, self.wpb.bit_length() - 1)  # log2(wpb)
        self.input = pm("scan.input", 4 * self.n)
        self.bufs: List = [
            pm(f"scan.buf{r}", 4 * self.n) for r in range(self.rounds + 1)
        ]
        self.flags = system.malloc(
            4 * self.params.blocks * self.wpb * (self.rounds + 1)
        )

    def initialize(self, system: GPUSystem) -> None:
        system.host_write_words(self.input, self.input_values())

    def input_values(self) -> np.ndarray:
        return (np.arange(self.n) * 7) % 23 + 1

    def _flag(self, blk: int, rnd: int, warp: int) -> int:
        per_block = self.wpb * (self.rounds + 1)
        return self.flags.base + 4 * (blk * per_block + rnd * self.wpb + warp)

    # ------------------------------------------------------------------
    # kernel
    # ------------------------------------------------------------------
    def _kernel(self, w, p: ScanParams):
        blk = w.block_id
        me = w.warp_in_block
        seg_base = blk * self.seg + me * w.warp_size
        my_words = 4 * (seg_base + w.lane)
        # Per-warp address vectors, computed once (each buffer's lane
        # addresses are reused across the round structure).
        buf_addrs = [buf.base + my_words for buf in self.bufs]
        add_op = w.compute(p.add_cycles)  # reused: the SM only reads it

        # Round 0: local inclusive scan of this warp's 32 elements.
        done0 = yield w.ld(buf_addrs[0])
        if int(done0[-1]) == 0:
            vals = yield w.ld(self.input.base + my_words)
            local = np.cumsum(vals).astype(np.int64)
            yield w.compute(5 * p.add_cycles)  # warp-shuffle scan
            yield w.st(buf_addrs[0], local)
        else:
            local = np.asarray(done0, dtype=np.int64)
        yield w.prel(self._flag(blk, 0, me), 1, Scope.BLOCK)

        # Rounds over warp partials: warp me adds the running total of
        # warp (me - 2^{r-1}) from the previous round's buffer.
        for r in range(1, self.rounds + 1):
            stride = 1 << (r - 1)
            done = yield w.ld(buf_addrs[r])
            if int(done[-1]) == 0:
                if me >= stride:
                    src_warp = me - stride
                    yield from spin_pacq(
                        w, self._flag(blk, r - 1, src_warp), Scope.BLOCK
                    )
                    src_last = (
                        blk * self.seg + src_warp * w.warp_size + w.warp_size - 1
                    )
                    carry = yield w.ld(
                        self.bufs[r - 1].base + 4 * src_last,
                        mask=w.lane == 0,
                    )
                    local = local + int(carry[0])
                    yield add_op
                yield w.st(buf_addrs[r], local)
            else:
                local = np.asarray(done, dtype=np.int64)
            yield w.prel(self._flag(blk, r, me), 1, Scope.BLOCK)

    # ------------------------------------------------------------------
    # driver
    # ------------------------------------------------------------------
    def run(self, system: GPUSystem) -> RunOutcome:
        result = system.launch(
            self._kernel, self.params.blocks, kwargs={"p": self.params}, name="scan"
        )
        return RunOutcome([result])

    def recover(self, system: GPUSystem) -> RunOutcome:
        result = system.launch(
            self._kernel,
            self.params.blocks,
            kwargs={"p": self.params},
            name="scan.recover",
        )
        return RunOutcome([result])

    # ------------------------------------------------------------------
    # checking
    # ------------------------------------------------------------------
    def expected(self) -> np.ndarray:
        vals = self.input_values().reshape(self.params.blocks, self.seg)
        return np.cumsum(vals, axis=1).reshape(-1)

    def check(self, system: GPUSystem, complete: bool = True) -> None:
        # Every persisted word of every round buffer must be correct.
        ref_final = self.expected()
        vals = self.input_values().reshape(self.params.blocks, self.wpb, -1)
        warp_scans = np.cumsum(vals, axis=2)
        for r, buf in enumerate(self.bufs):
            got = system.read_words(buf, self.n)
            ref = self._round_reference(warp_scans, r)
            bad = (got != 0) & (got != ref)
            self.require(
                not bad.any(), f"scan: wrong persisted value in round {r}"
            )
        if complete:
            final = system.read_words(self.bufs[-1], self.n)
            self.require(
                bool((final == ref_final).all()), "scan: final buffer incomplete"
            )

    def _round_reference(self, warp_scans: np.ndarray, r: int) -> np.ndarray:
        """Expected contents of round-r's buffer when fully computed."""
        blocks, wpb, lanes = warp_scans.shape
        out = warp_scans.astype(np.int64).copy()
        for rnd in range(1, r + 1):
            stride = 1 << (rnd - 1)
            prev = out.copy()
            for me in range(stride, wpb):
                out[:, me, :] += prev[:, me - stride, -1][:, None]
        return out.reshape(-1)