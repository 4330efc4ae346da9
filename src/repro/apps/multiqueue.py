"""Multiqueue (MQ): per-threadblock persistent queues (Table 2, row 5).

Every threadblock owns one PM-resident queue and inserts batches of
entries transactionally (Chen et al.'s dynamic load-balancing queues,
which the paper cites).  Per batch:

1. each warp writes its slice of the batch into the queue array past the
   current tail and releases a **block-scope** flag (the intra-block
   inter-thread PMO: the tail may only persist after the entries);
2. the leader warp acquires every warp's flag, logs the old/new tail to
   a sealed PM record, ``oFence``s, publishes the new tail, ``oFence``s,
   and clears the seal (intra-thread PMO; the repeated tail and seal
   rewrites are the "frequent flushes during logging" the paper blames
   for MQ's modest speedups).

Recovery: a valid seal means the tail update may be torn — roll the tail
back to the logged old value (entries past the tail are dead weight and
are rewritten by the retried batch).  All-or-nothing per batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.base import App, AppParams, PMMapper, RunOutcome
from repro.apps.common import SEAL
from repro.common.config import Scope
from repro.system import GPUSystem


@dataclass(frozen=True)
class MultiqueueParams(AppParams):
    #: Batches inserted per queue (paper: 2K batches total).
    batches: int = 4
    #: Threadblocks == queues.
    blocks: int = 4
    #: ALU cost of producing one entry.
    produce_cycles: int = 25


def entry_value(block: int, index) -> np.ndarray | int:
    return (block + 1) * 100_000 + index + 1


class Multiqueue(App):
    """Per-block persistent queues with transactional batch insert."""

    name = "multiqueue"
    scoped_pmo = "intra/blk-interthread"
    recovery_style = "logging"

    def __init__(self, **overrides) -> None:
        self.params = MultiqueueParams(**overrides)

    # ------------------------------------------------------------------
    # memory layout
    # ------------------------------------------------------------------
    def attach(self, system: GPUSystem, pm: PMMapper) -> None:
        p = self.params
        gpu = system.config.gpu
        self.batch_size = gpu.threads_per_block
        capacity = p.batches * self.batch_size
        self.entries = pm("mq.entries", 4 * capacity * p.blocks)
        self.tail = pm("mq.tail", 4 * p.blocks * 32)  # line-spaced
        self.log_old = pm("mq.log_old", 4 * p.blocks * 32)
        self.log_new = pm("mq.log_new", 4 * p.blocks * 32)
        self.log_seal = pm("mq.log_seal", 4 * p.blocks * 32)
        # One producer flag per warp plus one commit flag, per block.
        self.wflags = system.malloc(4 * p.blocks * (gpu.warps_per_block + 1))

    def _tail_word(self, block: int) -> int:
        # Tails are line-spaced so blocks never share a PM line.
        return self.tail.base + 4 * 32 * block

    # ------------------------------------------------------------------
    # kernel
    # ------------------------------------------------------------------
    def _insert_kernel(self, w, p: MultiqueueParams):
        blk = w.block_id
        capacity = p.batches * self.batch_size
        qbase = self.entries.base + 4 * capacity * blk
        leader = w.lane == 0
        is_leader_warp = w.warp_in_block == 0
        wpb = w.warps_per_block
        flag_base = self.wflags.base + 4 * (wpb + 1) * blk
        commit_flag = flag_base + 4 * wpb

        tail0 = yield w.ld(self._tail_word(blk), mask=leader)
        tail = int(tail0[0])
        start_batch = tail // self.batch_size  # resume after crash
        for batch in range(start_batch, p.batches):
            # Every warp produces and persists its slice of the batch.
            index = tail + w.warp_in_block * w.warp_size + w.lane
            yield w.compute(p.produce_cycles)
            yield w.st(qbase + 4 * index, entry_value(blk, index))
            yield w.prel(flag_base + 4 * w.warp_in_block, batch + 1, Scope.BLOCK)
            if is_leader_warp:
                # Tail persists only after every warp's entries.
                for other in range(wpb):
                    yield w.pacq(
                        flag_base + 4 * other, Scope.BLOCK, at_least=batch + 1
                    )
                new_tail = tail + self.batch_size
                yield w.st(self.log_old.base + 4 * 32 * blk, tail + 1, mask=leader)
                yield w.st(self.log_new.base + 4 * 32 * blk, new_tail, mask=leader)
                yield w.st(
                    self.log_seal.base + 4 * 32 * blk,
                    (tail + 1) ^ new_tail ^ SEAL,
                    mask=leader,
                )
                yield w.ofence()
                yield w.st(self._tail_word(blk), new_tail, mask=leader)
                yield w.ofence()
                yield w.st(self.log_seal.base + 4 * 32 * blk, 0, mask=leader)
                yield w.prel(commit_flag, batch + 1, Scope.BLOCK)
            else:
                # Wait for the leader to commit before the next batch.
                yield w.pacq(commit_flag, Scope.BLOCK, at_least=batch + 1)
            tail += self.batch_size

    def _recover_kernel(self, w, p: MultiqueueParams):
        blk = w.block_id
        leader = (w.lane == 0) & (w.warp_in_block == 0)
        old = yield w.ld(self.log_old.base + 4 * 32 * blk, mask=leader)
        new = yield w.ld(self.log_new.base + 4 * 32 * blk, mask=leader)
        seal = yield w.ld(self.log_seal.base + 4 * 32 * blk, mask=leader)
        valid = leader & (seal == (old ^ new ^ SEAL)) & (old > 0)
        # Roll the tail back to the logged old value (old is stored +1
        # so a zero tail is distinguishable from an empty record).
        yield w.st(self._tail_word(blk), old - 1, mask=valid)
        yield w.dfence()
        yield w.st(self.log_seal.base + 4 * 32 * blk, 0, mask=leader)

    # ------------------------------------------------------------------
    # driver
    # ------------------------------------------------------------------
    def run(self, system: GPUSystem) -> RunOutcome:
        result = system.launch(
            self._insert_kernel,
            self.params.blocks,
            kwargs={"p": self.params},
            name="mq.insert",
        )
        return RunOutcome([result])

    def recover(self, system: GPUSystem) -> RunOutcome:
        result = system.launch(
            self._recover_kernel,
            self.params.blocks,
            kwargs={"p": self.params},
            name="mq.recover",
        )
        return RunOutcome([result])

    # ------------------------------------------------------------------
    # checking
    # ------------------------------------------------------------------
    def check(self, system: GPUSystem, complete: bool = True) -> None:
        p = self.params
        capacity = p.batches * self.batch_size
        for blk in range(p.blocks):
            tail = int(system.read_word(self._tail_word(blk)))
            self.require(
                tail % self.batch_size == 0,
                f"MQ: queue {blk} tail {tail} is not batch-aligned",
            )
            self.require(tail <= capacity, f"MQ: queue {blk} tail overflow")
            if tail:
                idx = np.arange(tail)
                got = system.read_words(self.entries, capacity * p.blocks)[
                    capacity * blk : capacity * blk + tail
                ]
                want = entry_value(blk, idx)
                self.require(
                    bool((got == want).all()),
                    f"MQ: queue {blk} has torn entries below the tail",
                )
            if complete:
                self.require(
                    tail == capacity,
                    f"MQ: queue {blk} incomplete ({tail}/{capacity})",
                )
