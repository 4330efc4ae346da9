"""gpKVS: GPU-accelerated persistent key-value store (Table 2, row 1).

A batch of key-value updates is applied to a PM-resident open-addressing
table in parallel, one update per thread.  Recoverability uses
write-ahead *undo* logging (Figure 4 of the paper):

1. write the undo record (old key, old value, slot) sealed with a
   checksum word — one coalesced line per few threads,
2. ``oFence`` — the record must be durable before the pair changes,
3. overwrite the pair in the table,
4. ``oFence`` — the new pair must be durable before the log commits,
5. commit by clearing the seal (rewrites the record's line: the
   same-line-across-fence pattern that exercises SBRP's EDM).

The recovery kernel re-reads the log and restores the old pair for every
record whose seal is still valid, makes the restoration durable with
``dFence``, then discards the log — exactly Figure 4's ``recover()``.

Slot *s* initially holds the pair ``(s, 3s+1)``; the batch re-keys it to
``(s + capacity, 7s+2)``.  Key and value live in different PM lines, so
without logging a crash can tear a pair — the checker looks for exactly
that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.apps.base import App, AppParams, PMMapper, RunOutcome
from repro.apps.common import SEAL
from repro.system import GPUSystem


@dataclass(frozen=True)
class GpKVSParams(AppParams):
    #: Updates in the batch.  Paper: ~64K.
    n_pairs: int = 4096
    #: Table slots (>= n_pairs).
    capacity: int = 8192
    #: Operations per thread (batch processed in rounds; real gpKVS
    #: threads service several requests, re-reading KVS metadata between
    #: them — the L1 reuse that epoch barriers destroy, Figure 8).
    rounds: int = 4
    #: Buckets read while probing (PM read locality).
    probe_depth: int = 4
    #: Words of per-stripe bucket metadata (PM, re-read every round).
    dir_words: int = 1024
    #: Words of the volatile hash-coefficient table (re-read every
    #: round; GPM's system fence invalidates even these).
    coeff_words: int = 512
    #: ALU cost of hashing a key.
    hash_cycles: int = 40
    #: Deliberately mis-used persistency, for proving the fault
    #: campaign's oracles have teeth.  ``""`` = correct protocol;
    #: ``"unsealed_log"`` never seals the undo record (recovery can
    #: restore nothing); ``"missing_ofence"`` drops the record->table
    #: ordering fence (the Section 5.3 misuse pattern — latent under an
    #: uncongested FIFO drain, exposed by drain-order faults);
    #: ``"commit_first"`` clears the seal *before* overwriting the pair
    #: (premature log truncation — any crash inside the update window
    #: leaves a torn pair no recovery can restore).
    seeded_bug: str = ""


def old_value(slot: np.ndarray | int) -> np.ndarray | int:
    return 3 * slot + 1


def new_value(slot: np.ndarray | int) -> np.ndarray | int:
    return 7 * slot + 2


class GpKVS(App):
    """Persistent KVS with undo logging (intra-thread PMO)."""

    name = "gpkvs"
    scoped_pmo = "intra-thread"
    recovery_style = "logging"

    def __init__(self, **overrides) -> None:
        self.params = GpKVSParams(**overrides)
        if self.params.n_pairs > self.params.capacity:
            raise ValueError("n_pairs must not exceed capacity")
        if self.params.n_pairs % self.params.rounds:
            raise ValueError("n_pairs must be divisible by rounds")
        if self.params.seeded_bug not in (
            "",
            "unsealed_log",
            "missing_ofence",
            "commit_first",
        ):
            raise ValueError(
                f"unknown seeded_bug {self.params.seeded_bug!r}; "
                "have '', 'unsealed_log', 'missing_ofence', 'commit_first'"
            )

    # ------------------------------------------------------------------
    # memory layout
    # ------------------------------------------------------------------
    def attach(self, system: GPUSystem, pm: PMMapper) -> None:
        p = self.params
        self.tbl_key = pm("gpkvs.tbl_key", 4 * p.capacity)
        self.tbl_val = pm("gpkvs.tbl_val", 4 * p.capacity)
        self.log_key = pm("gpkvs.log_key", 4 * p.n_pairs)
        self.log_val = pm("gpkvs.log_val", 4 * p.n_pairs)
        self.log_slot = pm("gpkvs.log_slot", 4 * p.n_pairs)
        self.log_seal = pm("gpkvs.log_seal", 4 * p.n_pairs)
        self.directory = pm("gpkvs.dir", 4 * p.dir_words)
        self.coeff = system.malloc(4 * p.coeff_words)
        system.host_write_words(self.coeff, np.arange(p.coeff_words) + 1)

    def initialize(self, system: GPUSystem) -> None:
        p = self.params
        slots = np.arange(p.capacity)
        system.host_write_words(self.tbl_key, slots)
        system.host_write_words(self.tbl_val, old_value(slots))
        system.host_write_words(self.directory, np.arange(p.dir_words) + 1)

    # ------------------------------------------------------------------
    # kernels
    # ------------------------------------------------------------------
    def _insert_kernel(self, w, p: GpKVSParams):
        per_round = p.n_pairs // p.rounds
        # Round-invariant vectors, hoisted out of the loop (value-for-
        # value identical to computing them fresh each round).
        tid = w.tid
        coeff_addr = self.coeff.base + 4 * (tid % p.coeff_words)
        dir_addr = self.directory.base + 4 * (tid % p.dir_words)
        in_round = tid < per_round
        tbl_key_base = self.tbl_key.base
        tbl_val_base = self.tbl_val.base
        # Reused op objects: the SM only reads Compute fields.
        hash_op = w.compute(p.hash_cycles)
        update_op = w.compute(8)
        for rnd in range(p.rounds):
            op = tid + rnd * per_round  # this round's operation index
            active = in_round & (op < p.n_pairs)
            slot = op % p.capacity
            slot4 = 4 * slot
            op4 = 4 * op
            # Hashing re-reads the volatile coefficient table and the
            # PM-resident bucket directory every round: these lines are
            # hot in L1 under SBRP, invalidated by every epoch barrier
            # (and GPM's fence kills the volatile ones too).
            _c = yield w.ld(coeff_addr)
            _d = yield w.ld(dir_addr, mask=active)
            yield hash_op
            # Probe the neighbourhood (PM reads, warp-coalesced).
            for d in range(p.probe_depth):
                probe = (slot + d) % p.capacity
                _keys = yield w.ld(tbl_key_base + 4 * probe, mask=active)
            old_k = yield w.ld(tbl_key_base + slot4, mask=active)
            old_v = yield w.ld(tbl_val_base + slot4, mask=active)
            # Lookup-before-update: skip keys the batch already re-keyed
            # (a committed update surviving a crash) - idempotent re-runs.
            todo = active & (old_k != slot + p.capacity)
            # Undo record, sealed.
            yield w.st(self.log_key.base + op4, old_k, mask=todo)
            yield w.st(self.log_val.base + op4, old_v, mask=todo)
            yield w.st(self.log_slot.base + op4, slot, mask=todo)
            if p.seeded_bug != "unsealed_log":
                yield w.st(
                    self.log_seal.base + op4,
                    old_k ^ old_v ^ slot ^ SEAL,
                    mask=todo,
                )
            if p.seeded_bug != "missing_ofence":
                yield w.ofence()
            if p.seeded_bug == "commit_first":
                # BUG: the commit precedes the update it covers, so a
                # crash inside the update window finds an invalid record.
                yield w.st(self.log_seal.base + op4, 0, mask=todo)
            # Overwrite the pair.
            yield update_op
            yield w.st(tbl_key_base + slot4, slot + p.capacity, mask=todo)
            yield w.st(tbl_val_base + slot4, new_value(slot), mask=todo)
            yield w.ofence()
            # Commit: clear the seal (same line as the record - the EDM
            # same-line-across-fence pattern).
            if p.seeded_bug != "commit_first":
                yield w.st(self.log_seal.base + op4, 0, mask=todo)

    def _recover_kernel(self, w, p: GpKVSParams):
        active = w.tid < p.n_pairs
        k = yield w.ld(self.log_key.base + 4 * w.tid, mask=active)
        v = yield w.ld(self.log_val.base + 4 * w.tid, mask=active)
        s = yield w.ld(self.log_slot.base + 4 * w.tid, mask=active)
        seal = yield w.ld(self.log_seal.base + 4 * w.tid, mask=active)
        valid = active & (seal == (k ^ v ^ s ^ SEAL))
        # Restore the old pair for in-flight updates.
        yield w.st(self.tbl_key.base + 4 * s, k, mask=valid)
        yield w.st(self.tbl_val.base + 4 * s, v, mask=valid)
        yield w.dfence()
        # Discard the log only after the restoration is durable.
        yield w.st(self.log_seal.base + 4 * w.tid, 0, mask=active)

    # ------------------------------------------------------------------
    # driver
    # ------------------------------------------------------------------
    def _grid(self, system: GPUSystem) -> int:
        per_block = system.config.gpu.threads_per_block
        threads = self.params.n_pairs // self.params.rounds
        return max(1, -(-threads // per_block))

    def run(self, system: GPUSystem) -> RunOutcome:
        result = system.launch(
            self._insert_kernel,
            self._grid(system),
            kwargs={"p": self.params},
            name="gpkvs.insert",
        )
        return RunOutcome([result])

    def recover(self, system: GPUSystem) -> RunOutcome:
        per_block = system.config.gpu.threads_per_block
        grid = max(1, -(-self.params.n_pairs // per_block))
        result = system.launch(
            self._recover_kernel,
            grid,
            kwargs={"p": self.params},
            name="gpkvs.recover",
        )
        return RunOutcome([result])

    # ------------------------------------------------------------------
    # checking
    # ------------------------------------------------------------------
    def check(self, system: GPUSystem, complete: bool = True) -> None:
        p = self.params
        keys = system.read_words(self.tbl_key, p.capacity)
        vals = system.read_words(self.tbl_val, p.capacity)
        slots = np.arange(p.capacity)
        is_old = (keys == slots) & (vals == old_value(slots))
        is_new = (keys == slots + p.capacity) & (vals == new_value(slots))
        torn = ~(is_old | is_new)
        self.require(
            not torn.any(),
            f"gpKVS: {int(torn.sum())} torn pairs, first at slot "
            f"{int(np.argmax(torn))}",
        )
        if complete:
            updated = is_new[: p.n_pairs]
            self.require(
                bool(updated.all()),
                f"gpKVS: {int((~updated).sum())} batch updates missing",
            )
