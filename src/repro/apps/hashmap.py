"""Hashmap (HM): cuckoo-hashed PM hashmap with undo logging (Table 2).

Batches of values are inserted into a two-table cuckoo hashmap kept in
PM.  Each insertion may displace the incumbent of its first-choice slot
into the second table (one bounded displacement, as in the real-time GPU
cuckoo hashing of Alcantara et al. that the paper cites).  Before any
slot is overwritten its old contents are logged to PM — the intra-thread
PMO pattern of gpKVS, but with *two* fenced updates per insert, and with
reads of both tables giving L1 reuse.

Layout: table 1 and table 2 each hold ``capacity`` (key, value) pairs.
Thread *i* inserts key ``K+i`` into table-1 slot ``h1(i)``; the displaced
table-1 pair moves to table-2 slot ``h2``.  Keys are assigned so that
every thread touches distinct slots (GPU batches are pre-partitioned, as
in the cited work, so the parallel inserts are race-free).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.base import App, AppParams, PMMapper, RunOutcome
from repro.apps.common import SEAL
from repro.system import GPUSystem

#: Key namespace offsets.
RESIDENT = 1_000  # initial occupants of table 1
INSERTED = 2_000_000  # batch keys


@dataclass(frozen=True)
class HashmapParams(AppParams):
    #: Values inserted.  Paper: ~50K entries.
    n_inserts: int = 4096
    #: Slots per table (>= n_inserts).
    capacity: int = 8192
    #: Insertions per thread (batch processed in rounds).
    rounds: int = 4
    #: Words of volatile hash-coefficient table (re-read every round).
    coeff_words: int = 512
    #: ALU cost per hash evaluation.
    hash_cycles: int = 30


def resident_key(slot):
    return RESIDENT + slot


def resident_val(slot):
    return 5 * slot + 3


def insert_key(i):
    return INSERTED + i


def insert_val(i):
    return 9 * i + 4


class Hashmap(App):
    """Cuckoo hashmap with per-displacement undo logging."""

    name = "hashmap"
    scoped_pmo = "intra-thread"
    recovery_style = "logging"

    def __init__(self, **overrides) -> None:
        self.params = HashmapParams(**overrides)
        if self.params.n_inserts > self.params.capacity:
            raise ValueError("n_inserts must not exceed capacity")
        if self.params.n_inserts % self.params.rounds:
            raise ValueError("n_inserts must be divisible by rounds")

    # ------------------------------------------------------------------
    # memory layout
    # ------------------------------------------------------------------
    def attach(self, system: GPUSystem, pm: PMMapper) -> None:
        p = self.params
        cap = p.capacity
        self.t1_key = pm("hm.t1_key", 4 * cap)
        self.t1_val = pm("hm.t1_val", 4 * cap)
        self.t2_key = pm("hm.t2_key", 4 * cap)
        self.t2_val = pm("hm.t2_val", 4 * cap)
        # Per-thread undo record: old pair of the displaced t1 slot plus
        # the new t2 contents being written, sealed.
        for field in ("old_key", "old_val", "slot", "seal"):
            setattr(self, f"log_{field}", pm(f"hm.log_{field}", 4 * p.n_inserts))
        self.coeff = system.malloc(4 * p.coeff_words)
        system.host_write_words(self.coeff, np.arange(p.coeff_words) + 1)

    def initialize(self, system: GPUSystem) -> None:
        slots = np.arange(self.params.capacity)
        system.host_write_words(self.t1_key, resident_key(slots))
        system.host_write_words(self.t1_val, resident_val(slots))

    # ------------------------------------------------------------------
    # kernels
    # ------------------------------------------------------------------
    def _insert_kernel(self, w, p: HashmapParams):
        per_round = p.n_inserts // p.rounds
        for rnd in range(p.rounds):
            op = w.tid + rnd * per_round
            active = (w.tid < per_round) & (op < p.n_inserts)
            slot1 = op % p.capacity  # h1
            slot2 = (op * 7 + 3) % p.capacity  # h2 (distinct per op)
            # Hash coefficients are volatile and re-read every round.
            _c = yield w.ld(self.coeff.base + 4 * (w.tid % p.coeff_words))
            yield w.compute(p.hash_cycles)
            # Read the incumbent of the first-choice slot (it will be
            # displaced into table 2 - classic cuckoo step).
            old_k = yield w.ld(self.t1_key.base + 4 * slot1, mask=active)
            old_v = yield w.ld(self.t1_val.base + 4 * slot1, mask=active)
            # Lookup-before-insert: a key already present (a committed
            # insert surviving a crash) must not be displaced again.
            todo = active & (old_k != insert_key(op))
            yield w.compute(p.hash_cycles)
            # Undo record covering the t1 overwrite, sealed.
            yield w.st(self.log_old_key.base + 4 * op, old_k, mask=todo)
            yield w.st(self.log_old_val.base + 4 * op, old_v, mask=todo)
            yield w.st(self.log_slot.base + 4 * op, slot1, mask=todo)
            yield w.st(
                self.log_seal.base + 4 * op,
                old_k ^ old_v ^ slot1 ^ SEAL,
                mask=todo,
            )
            yield w.ofence()
            # Displace the incumbent into table 2, then claim table 1.
            yield w.st(self.t2_key.base + 4 * slot2, old_k, mask=todo)
            yield w.st(self.t2_val.base + 4 * slot2, old_v, mask=todo)
            yield w.st(self.t1_key.base + 4 * slot1, insert_key(op), mask=todo)
            yield w.st(self.t1_val.base + 4 * slot1, insert_val(op), mask=todo)
            yield w.ofence()
            # Commit: clear the seal.
            yield w.st(self.log_seal.base + 4 * op, 0, mask=todo)

    def _recover_kernel(self, w, p: HashmapParams):
        active = w.tid < p.n_inserts
        k = yield w.ld(self.log_old_key.base + 4 * w.tid, mask=active)
        v = yield w.ld(self.log_old_val.base + 4 * w.tid, mask=active)
        s = yield w.ld(self.log_slot.base + 4 * w.tid, mask=active)
        seal = yield w.ld(self.log_seal.base + 4 * w.tid, mask=active)
        valid = active & (seal == (k ^ v ^ s ^ SEAL))
        slot2 = (w.tid * 7 + 3) % p.capacity
        # Roll back: restore t1's old pair and clear the t2 duplicate.
        yield w.st(self.t1_key.base + 4 * s, k, mask=valid)
        yield w.st(self.t1_val.base + 4 * s, v, mask=valid)
        yield w.st(self.t2_key.base + 4 * slot2, 0, mask=valid)
        yield w.st(self.t2_val.base + 4 * slot2, 0, mask=valid)
        yield w.dfence()
        yield w.st(self.log_seal.base + 4 * w.tid, 0, mask=active)

    # ------------------------------------------------------------------
    # driver
    # ------------------------------------------------------------------
    def _grid(self, system: GPUSystem) -> int:
        per_block = system.config.gpu.threads_per_block
        threads = self.params.n_inserts // self.params.rounds
        return max(1, -(-threads // per_block))

    def run(self, system: GPUSystem) -> RunOutcome:
        result = system.launch(
            self._insert_kernel,
            self._grid(system),
            kwargs={"p": self.params},
            name="hm.insert",
        )
        return RunOutcome([result])

    def recover(self, system: GPUSystem) -> RunOutcome:
        per_block = system.config.gpu.threads_per_block
        grid = max(1, -(-self.params.n_inserts // per_block))
        result = system.launch(
            self._recover_kernel,
            grid,
            kwargs={"p": self.params},
            name="hm.recover",
        )
        return RunOutcome([result])

    # ------------------------------------------------------------------
    # checking
    # ------------------------------------------------------------------
    def check(self, system: GPUSystem, complete: bool = True) -> None:
        p = self.params
        t1k = system.read_words(self.t1_key, p.capacity)
        t1v = system.read_words(self.t1_val, p.capacity)
        t2k = system.read_words(self.t2_key, p.capacity)
        t2v = system.read_words(self.t2_val, p.capacity)
        i = np.arange(p.n_inserts)
        slot1 = i % p.capacity
        slot2 = (i * 7 + 3) % p.capacity
        done = (t1k[slot1] == insert_key(i)) & (t1v[slot1] == insert_val(i))
        rolled = (t1k[slot1] == resident_key(slot1)) & (
            t1v[slot1] == resident_val(slot1)
        )
        self.require(
            bool((done | rolled).all()),
            "HM: a table-1 slot holds a torn pair after recovery",
        )
        # An insert that completed must have the displaced pair intact
        # in table 2 (or recovery must have rolled the whole step back).
        displaced_ok = (t2k[slot2] == resident_key(slot1)) & (
            t2v[slot2] == resident_val(slot1)
        )
        self.require(
            bool((~done | displaced_ok).all()),
            "HM: an insert committed but its displaced pair is missing",
        )
        if complete:
            self.require(
                bool(done.all()),
                f"HM: {int((~done).sum())} inserts missing after full run",
            )
