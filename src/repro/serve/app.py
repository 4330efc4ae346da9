"""ServeKVS: the transactional key-value store behind the serving layer.

One :class:`ServeKVS` instance executes a planned request stream
(:mod:`repro.serve.workload`) against a PM-resident direct-mapped table,
one kernel launch per batch, one request per thread.  Every batch is a
group commit: the launch drains all buffered persists, so at any crash
instant only the in-flight batch's transactions can be partial.

Row layout (all PM): ``tbl_key[s]`` holds ``key + 1`` (0 = absent),
``tbl_val[s]`` the encoded value, ``pay[s * payload_large + i]`` the
payload words.  Key *k* maps to slot *k* (the workload generator keeps
keys below capacity).

Write transactions persist through one of two paths selected by
:func:`repro.serve.txn.select_path`:

* **PB / undo** — write a *logical* undo record of the pre-image
  (known host-side from the version history, so no row read), sealed
  with a checksum, ``ofence``, update in place, ``ofence``, clear the
  seal — everything rides the persist buffer until the group commit
  (the gpKVS Figure 4 protocol with logical logging and
  variable-length payloads);
* **direct / redo** — write a redo record of the *new* row flagged
  with a checksum, ``ofence``, ``dfence`` (the NVM write-through: the
  warp stalls until the record is durable, pulling its drain forward
  into the batch's execution), apply in place, ``ofence``, clear the
  flag (FIFO drain order makes the clear durable only after the row).

Both logs are indexed by the request's slot *within its batch*, so one
batch's records never collide; the ``drain=True`` launch boundary makes
the previous batch's cleared log durable before slots are reused.

Recovery scans both logs on the rebooted machine: a validly sealed undo
record rolls its row back, a validly flagged redo record rolls its row
forward, and both logs are discarded only after a ``dfence``.

``seeded_bug="early_commit"`` clears the undo seal *before* the
in-place update — premature log truncation, the teeth check for the
fault campaign's recovery oracle.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Dict, List, Mapping, NamedTuple, Optional, Tuple

import numpy as np

from repro.apps.base import App, AppParams, PMMapper, RunOutcome
from repro.apps.common import SEAL
from repro.gpu.ops import Compute, DFence, Ld, OFence, Op, St
from repro.serve.txn import (
    DEFAULT_THRESHOLD_WORDS,
    PATH_DIRECT,
    POLICIES,
    POLICY_ADAPTIVE,
    select_path,
)
from repro.serve.workload import Batch, Plan, WorkloadSpec, plan_workload
from repro.system import GPUSystem

#: Value encoding: version *j* of key *k*.  The stride pair (100003, 31)
#: is coprime, so ``(value - base) / 31`` uniquely recovers the version
#: during checking; payload word *i* of that version is ``value + 1 + i``.
VALUE_BASE = 100003
VALUE_STEP = 31


def encode_value(key: "np.ndarray | int", version: "np.ndarray | int"):
    return (key + 1) * VALUE_BASE + VALUE_STEP * version


@dataclass(frozen=True)
class ServeKVSParams(AppParams):
    """Workload spec + transaction-layer knobs, flat for ScenarioJob."""

    seed: int = 7
    n_requests: int = 256
    mix: str = "rmw_heavy"
    popularity: str = "zipfian"
    theta: float = 0.99
    n_keys: int = 256
    capacity: int = 640
    arrival: str = "poisson"
    rate_per_kcycle: float = 4.0
    payload_small: int = 2
    payload_large: int = 8
    large_every: int = 4
    batch_requests: int = 128
    #: Persist-path policy: adaptive | forced_pb | forced_direct.
    policy: str = POLICY_ADAPTIVE
    #: Adaptive cut-over in row words (key + value + payload).
    threshold_words: int = DEFAULT_THRESHOLD_WORDS
    #: ALU cost of request parsing/hashing, cycles.
    compute_cycles: int = 12
    #: "" = correct protocol; "early_commit" truncates the undo log
    #: before the in-place update (fault-campaign teeth).
    seeded_bug: str = ""

    def workload(self) -> WorkloadSpec:
        return WorkloadSpec(
            seed=self.seed,
            n_requests=self.n_requests,
            mix=self.mix,
            popularity=self.popularity,
            theta=self.theta,
            n_keys=self.n_keys,
            capacity=self.capacity,
            arrival=self.arrival,
            rate_per_kcycle=self.rate_per_kcycle,
            payload_small=self.payload_small,
            payload_large=self.payload_large,
            large_every=self.large_every,
            batch_requests=self.batch_requests,
        )


#: Per-batch lane arrays of one launch, by name (see :func:`_lane_arrays`).
Lanes = Mapping[str, Any]


class Stream(NamedTuple):
    """What a :class:`ServeKVS` derives from its params beyond the plan."""

    #: Per batch: the lane arrays of its one launch.
    lanes: Tuple[Lanes, ...]
    #: Initial table image: PM region name -> its words.
    image: Mapping[str, np.ndarray]


def _frozen(arrays: dict) -> Mapping[str, Any]:
    """*arrays* as a read-only mapping of read-only arrays."""
    for value in arrays.values():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    return MappingProxyType(arrays)


def _lane_arrays(p: ServeKVSParams, batch: Batch) -> Lanes:
    """A batch's lane arrays: one kernel launch covers all its lanes.

    The batch's size sort (:func:`~repro.serve.workload._order_in_batch`)
    packs reads, buffered writes and write-through writes into
    contiguous lane ranges, so once a batch spans several threadblocks
    each SM sees a homogeneous persist path — a write-through warp's
    dfence drains its own SM's records, not another path's buffered bulk
    (the persist buffer and its FIFO are per-SM).
    """
    n = len(batch.requests)
    arr = {
        "n": n,
        "key": np.zeros(n, dtype=np.int64),
        "ver": np.zeros(n, dtype=np.int64),
        "plen": np.zeros(n, dtype=np.int64),
        "read": np.zeros(n, dtype=bool),
        "rmw": np.zeros(n, dtype=bool),
        "write": np.zeros(n, dtype=bool),
        "direct": np.zeros(n, dtype=bool),
        "old_key": np.zeros(n, dtype=np.int64),
        "old_val": np.zeros(n, dtype=np.int64),
    }
    # Write combining: the batch's applying writer commits on top of
    # the key's version *before the batch*, not its own minus one —
    # intermediate versions are subsumed by the group commit.
    first_ver: Dict[int, int] = {}
    for req in batch.requests:
        if req.is_write:
            first_ver[req.key] = min(
                first_ver.get(req.key, req.version), req.version
            )
    for i, req in enumerate(batch.requests):
        arr["key"][i] = req.key
        arr["ver"][i] = req.version
        arr["plen"][i] = req.payload
        arr["read"][i] = req.op == "read"
        arr["rmw"][i] = req.op == "rmw"
        arr["write"][i] = req.is_applying_write
        if req.is_applying_write:
            arr["direct"][i] = (
                select_path(p.policy, req.payload, p.threshold_words)
                == PATH_DIRECT
            )
            # Version-aware logical undo: the layer tracks committed
            # versions, so the pre-image is known without a row read.
            # A never-written row's pre-image is absent.
            pre_ver = first_ver[req.key] - 1
            if not (req.key >= p.n_keys and pre_ver == 0):
                arr["old_key"][i] = req.key + 1
                arr["old_val"][i] = encode_value(req.key, pre_ver)
    return _frozen(arr)


def _initial_image(p: WorkloadSpec) -> Mapping[str, np.ndarray]:
    """The table before the stream: keys ``0..n_keys-1`` at version 0,
    each with its full payload; every other slot is zero."""
    slots = np.arange(p.n_keys)
    keys = np.zeros(p.capacity, dtype=np.int64)
    vals = np.zeros(p.capacity, dtype=np.int64)
    keys[: p.n_keys] = slots + 1
    vals[: p.n_keys] = encode_value(slots, 0)
    col = np.arange(p.payload_large)
    rows = np.zeros((p.capacity, p.payload_large), dtype=np.int64)
    rows[: p.n_keys] = np.where(
        col < p.payload_words(slots)[:, None], vals[: p.n_keys, None] + 1 + col, 0
    )
    return _frozen({"tbl_key": keys, "tbl_val": vals, "pay": rows.reshape(-1)})


@functools.lru_cache(maxsize=16)
def derive_stream(p: ServeKVSParams) -> Stream:
    """The lane arrays and initial image of *p*, derived once per
    process and shared read-only by every instance with equal params
    (the crash harness's baseline and recovery apps, fault-runner crash
    points, soak reboots): like the memoised plan they come from, both
    are pure functions of the frozen params, and nothing may write to
    them."""
    plan = plan_workload(p.workload())
    lanes = tuple(_lane_arrays(p, batch) for batch in plan.batches)
    return Stream(lanes, _initial_image(plan.spec))


#: One recorded warp op: the :class:`~repro.gpu.warp.WarpCtx` method
#: that builds it and that method's arguments (lanes as int tuples).
OpEntry = Tuple[str, tuple]
#: A batch's recorded launch: (block id, warp in block) -> that warp's ops.
OpRecord = Mapping[Tuple[int, int], Tuple[OpEntry, ...]]


@functools.lru_cache(maxsize=16)
def stream_ops(
    p: ServeKVSParams,
    warp_size: int,
    threads_per_block: int,
    bases: Tuple[int, ...],
) -> List[Optional[OpRecord]]:
    """Per batch of *p*'s stream, the warp ops its serve kernel yields
    on a machine of this warp geometry with the PM regions at *bases*;
    ``None`` until a launch has recorded them.

    The serve kernel never reads what its loads return: its ops are a
    pure function of this key and the batch index, so every launch
    after the first replays the record, under any model, on any
    machine, after any crash.  Shared by every instance with an equal
    key; a slot is written once, with a complete record."""
    return [None] * len(derive_stream(p).lanes)


def _entry(op: Op) -> OpEntry:
    """The :class:`~repro.gpu.warp.WarpCtx` call that rebuilds *op*."""
    kind = type(op)
    if kind is St:
        mask = op.mask
        return "st", (
            tuple(op.addrs),
            tuple(op.values),
            None if mask is None else tuple(mask),
        )
    if kind is Ld:
        mask = op.mask
        return "ld", (tuple(op.addrs), None if mask is None else tuple(mask))
    if kind is Compute:
        return "compute", (op.cycles,)
    if kind is OFence:
        return "ofence", ()
    if kind is DFence:
        return "dfence", ()
    raise TypeError(f"cannot record a {kind.__name__}")


class ServeKVS(App):
    """Traffic-driven persistent KVS with a dual-path transaction layer."""

    name = "serve_kvs"
    scoped_pmo = "intra-thread"
    recovery_style = "logging"

    def __init__(self, **overrides: Any) -> None:
        self.params = ServeKVSParams(**overrides)
        if self.params.policy not in POLICIES:
            raise ValueError(
                f"unknown policy {self.params.policy!r}; have {POLICIES}"
            )
        if self.params.seeded_bug not in ("", "early_commit"):
            raise ValueError(
                f"unknown seeded_bug {self.params.seeded_bug!r}; "
                "have '', 'early_commit'"
            )
        #: Shared with every instance of equal params, so each one
        #: (including the fresh ones the crash harness builds for
        #: recovery) sees the identical stream; after the first, both
        #: calls are memo hits.
        self.plan: Plan = plan_workload(self.params.workload())
        self.stream = derive_stream(self.params)

    # ------------------------------------------------------------------
    # memory layout
    # ------------------------------------------------------------------
    def attach(self, system: GPUSystem, pm: PMMapper) -> None:
        p = self.params
        cap, pay, b = p.capacity, p.payload_large, p.batch_requests
        regions = (
            ("tbl_key", cap),
            ("tbl_val", cap),
            ("pay", cap * pay),
            ("ulog_slot", b),
            ("ulog_key", b),
            ("ulog_val", b),
            ("ulog_pay", b * pay),
            ("ulog_seal", b),
            ("rlog_slot", b),
            ("rlog_key", b),
            ("rlog_val", b),
            ("rlog_pay", b * pay),
            ("rlog_flag", b),
        )
        for region, size in regions:
            setattr(self, region, pm(f"serve.{region}", 4 * size))
        gpu = system.config.gpu
        #: The stream's op records on this machine (:func:`stream_ops`):
        #: keyed on the warp geometry and where the regions sit.
        self.records = stream_ops(
            p,
            gpu.warp_size,
            gpu.threads_per_block,
            tuple(getattr(self, region).base for region, _ in regions),
        )

    def initialize(self, system: GPUSystem) -> None:
        for region, words in self.stream.image.items():
            system.host_write_words(getattr(self, region), words)

    def path_counts(self) -> Dict[str, int]:
        """How many write transactions each persist path serves."""
        lanes = self.stream.lanes
        direct = sum(int(a["direct"].sum()) for a in lanes)
        writes = sum(int(a["write"].sum()) for a in lanes)
        return {"pb": writes - direct, "direct": direct}

    # ------------------------------------------------------------------
    # kernels
    # ------------------------------------------------------------------
    def _serve_kernel(self, w, arr: Lanes):
        p = self.params
        pw = p.payload_large
        n = arr["n"]
        idx = np.minimum(w.tid, n - 1)
        active = w.tid < n
        key = arr["key"][idx]
        slot = key  # direct-mapped
        newv = encode_value(key, arr["ver"][idx])
        plen = arr["plen"][idx]
        read = active & arr["read"][idx]
        write = active & arr["write"][idx]
        rmw = active & arr["rmw"][idx]
        direct = write & arr["direct"][idx]
        pb = write & ~arr["direct"][idx]
        yield w.compute(p.compute_cycles)

        # Reads (and the read half of RMW): key, value, payload words.
        probe = read | rmw
        if bool(probe.any()):
            yield w.ld(self.tbl_key.base + 4 * slot, mask=probe)
            yield w.ld(self.tbl_val.base + 4 * slot, mask=probe)
            for i in range(pw):
                m = probe & (i < plen)
                if bool(m.any()):
                    yield w.ld(self.pay.base + 4 * (slot * pw + i), mask=m)

        pb_any = bool(pb.any())
        direct_any = bool(direct.any())
        write_any = bool(write.any())

        # PB path: sealed logical-undo record of the pre-image (known
        # from the version history — no row read on the log path).
        if pb_any:
            old_k = arr["old_key"][idx]
            old_v = arr["old_val"][idx]
            acc = slot ^ old_k ^ old_v ^ SEAL
            yield w.st(self.ulog_slot.base + 4 * w.tid, slot, mask=pb)
            yield w.st(self.ulog_key.base + 4 * w.tid, old_k, mask=pb)
            yield w.st(self.ulog_val.base + 4 * w.tid, old_v, mask=pb)
            for i in range(pw):
                m = pb & (i < plen)
                if bool(m.any()):
                    # An insert's pre-image payload is zero.
                    old_p = np.where(old_k != 0, old_v + 1 + i, 0)
                    yield w.st(
                        self.ulog_pay.base + 4 * (w.tid * pw + i),
                        old_p,
                        mask=m,
                    )
                    acc = acc + np.where(m, (old_p + 1) * (i + 2), 0)
            # Payload words enter the checksum position-weighted, not
            # XORed: the record lines flush concurrently (no ordering
            # inside the record), and a run of consecutive payload
            # values XORs to zero — the same as no payload at all — so
            # a crash that persists the seal before any payload word
            # would validate a hollow record.  A weighted sum shifts
            # under every missing or torn subset.  ``2*acc + 1`` keeps
            # a live seal distinct from the cleared state.
            yield w.st(self.ulog_seal.base + 4 * w.tid, 2 * acc + 1, mask=pb)

        # Direct path: flagged redo record of the new row (no old reads).
        if direct_any:
            facc = slot ^ (key + 1) ^ newv ^ SEAL
            yield w.st(self.rlog_slot.base + 4 * w.tid, slot, mask=direct)
            yield w.st(self.rlog_key.base + 4 * w.tid, key + 1, mask=direct)
            yield w.st(self.rlog_val.base + 4 * w.tid, newv, mask=direct)
            for i in range(pw):
                m = direct & (i < plen)
                if bool(m.any()):
                    yield w.st(
                        self.rlog_pay.base + 4 * (w.tid * pw + i),
                        newv + 1 + i,
                        mask=m,
                    )
                    facc = facc + np.where(m, (newv + 2 + i) * (i + 2), 0)
            yield w.st(
                self.rlog_flag.base + 4 * w.tid, 2 * facc + 1, mask=direct
            )

        # Records before row updates.
        if write_any:
            yield w.ofence()
        if p.seeded_bug == "early_commit" and pb_any:
            # BUG: the undo log is truncated before the update it
            # covers — a crash inside the update window finds no valid
            # record and the torn row survives recovery.
            yield w.st(self.ulog_seal.base + 4 * w.tid, 0, mask=pb)
        if direct_any:
            # The write-through commit: the redo record is durable from
            # here, and the drained persist buffer sheds its pressure.
            yield w.dfence()

        # Apply in place (both paths share the row stores).
        if write_any:
            yield w.st(self.tbl_key.base + 4 * slot, key + 1, mask=write)
            yield w.st(self.tbl_val.base + 4 * slot, newv, mask=write)
            for i in range(pw):
                m = write & (i < plen)
                if bool(m.any()):
                    yield w.st(
                        self.pay.base + 4 * (slot * pw + i),
                        newv + 1 + i,
                        mask=m,
                    )
            yield w.ofence()
            # Commit: discard the records (same-line-across-fence).
            if pb_any and p.seeded_bug != "early_commit":
                yield w.st(self.ulog_seal.base + 4 * w.tid, 0, mask=pb)
            if direct_any:
                # The persist buffer drains in FIFO order, so this
                # clear can only become durable after the in-place row
                # it covers — no second fence needed; rolling a cleared
                # record forward is idempotent anyway.
                yield w.st(self.rlog_flag.base + 4 * w.tid, 0, mask=direct)

    def _recording_kernel(self, w, arr: Lanes, record: dict):
        """:meth:`_serve_kernel`, live, noting each op as it is yielded;
        the warp's ops enter *record* when its kernel returns."""
        send = self._serve_kernel(w, arr).send
        ops = []
        note = ops.append
        sent = None
        try:
            while True:
                op = send(sent)
                note(_entry(op))
                sent = yield op
        except StopIteration:
            record[w.block_id, w.warp_in_block] = tuple(ops)

    def _replay_kernel(self, w, record: OpRecord):
        """The warp's recorded ops, rebuilt through *w*."""
        for method, args in record[w.block_id, w.warp_in_block]:
            yield getattr(w, method)(*args)

    def _recover_kernel(self, w, arr_unused=None):
        p = self.params
        pw = p.payload_large
        b = p.batch_requests
        payload_words = self.plan.spec.payload_words
        active = w.tid < b
        u_slot = yield w.ld(self.ulog_slot.base + 4 * w.tid, mask=active)
        u_key = yield w.ld(self.ulog_key.base + 4 * w.tid, mask=active)
        u_val = yield w.ld(self.ulog_val.base + 4 * w.tid, mask=active)
        u_seal = yield w.ld(self.ulog_seal.base + 4 * w.tid, mask=active)
        u_slot = np.clip(u_slot, 0, p.capacity - 1)
        u_plen = payload_words(u_slot)
        acc = u_slot ^ u_key ^ u_val ^ SEAL
        u_pay = []
        for i in range(pw):
            m = active & (i < u_plen)
            word = yield w.ld(
                self.ulog_pay.base + 4 * (w.tid * pw + i), mask=m
            )
            u_pay.append(word)
            acc = acc + np.where(m, (word + 1) * (i + 2), 0)
        u_valid = active & (u_seal == 2 * acc + 1)

        r_slot = yield w.ld(self.rlog_slot.base + 4 * w.tid, mask=active)
        r_key = yield w.ld(self.rlog_key.base + 4 * w.tid, mask=active)
        r_val = yield w.ld(self.rlog_val.base + 4 * w.tid, mask=active)
        r_flag = yield w.ld(self.rlog_flag.base + 4 * w.tid, mask=active)
        r_slot = np.clip(r_slot, 0, p.capacity - 1)
        r_plen = payload_words(r_slot)
        facc = r_slot ^ r_key ^ r_val ^ SEAL
        r_pay = []
        for i in range(pw):
            m = active & (i < r_plen)
            word = yield w.ld(
                self.rlog_pay.base + 4 * (w.tid * pw + i), mask=m
            )
            r_pay.append(word)
            facc = facc + np.where(m, (word + 1) * (i + 2), 0)
        r_valid = active & (r_flag == 2 * facc + 1)

        # Roll back in-flight undo transactions, roll forward flagged
        # redo transactions.
        yield w.st(self.tbl_key.base + 4 * u_slot, u_key, mask=u_valid)
        yield w.st(self.tbl_val.base + 4 * u_slot, u_val, mask=u_valid)
        for i in range(pw):
            m = u_valid & (i < u_plen)
            if bool(m.any()):
                yield w.st(
                    self.pay.base + 4 * (u_slot * pw + i), u_pay[i], mask=m
                )
        yield w.st(self.tbl_key.base + 4 * r_slot, r_key, mask=r_valid)
        yield w.st(self.tbl_val.base + 4 * r_slot, r_val, mask=r_valid)
        for i in range(pw):
            m = r_valid & (i < r_plen)
            if bool(m.any()):
                yield w.st(
                    self.pay.base + 4 * (r_slot * pw + i), r_pay[i], mask=m
                )
        yield w.dfence()
        # Discard both logs only after the restoration is durable.
        yield w.st(self.ulog_seal.base + 4 * w.tid, 0, mask=active)
        yield w.st(self.rlog_flag.base + 4 * w.tid, 0, mask=active)

    # ------------------------------------------------------------------
    # driver
    # ------------------------------------------------------------------
    def _grid(self, system: GPUSystem, threads: int) -> int:
        per_block = system.config.gpu.threads_per_block
        return max(1, -(-threads // per_block))

    def serve_batch(self, system: GPUSystem, index: int) -> List[Any]:
        """Launch batch *index* as one drained group commit; return the
        launch results.  The stream's first launch of the batch records
        its warp ops; every later one replays them (:func:`stream_ops`)."""
        arr = self.stream.lanes[index]
        grid = self._grid(system, arr["n"])
        name = f"serve.batch{self.plan.batches[index].index}"
        replay = self.records[index]
        if replay is None:
            record: dict = {}
            kernel = self._recording_kernel
            kwargs = {"arr": arr, "record": record}
        else:
            kernel, kwargs = self._replay_kernel, {"record": replay}
        result = system.launch(kernel, grid, kwargs=kwargs, name=name, drain=True)
        # Published complete or not at all: a launch that raised never
        # gets here.
        warps = grid * system.config.gpu.warps_per_block
        if replay is None and len(record) == warps:
            self.records[index] = MappingProxyType(record)
        return [result]

    def run(self, system: GPUSystem) -> RunOutcome:
        results = []
        for index in range(len(self.plan.batches)):
            results.extend(self.serve_batch(system, index))
        return RunOutcome(results)

    def recover(self, system: GPUSystem) -> RunOutcome:
        result = system.launch(
            self._recover_kernel,
            self._grid(system, self.params.batch_requests),
            name="serve.recover",
        )
        return RunOutcome([result])

    # ------------------------------------------------------------------
    # checking
    # ------------------------------------------------------------------
    def row_versions(self, vals: np.ndarray) -> np.ndarray:
        """Each slot's version decoded from its value word in *vals* (the
        ``tbl_val`` column, one word per slot); -1 where the word is no
        version of the slot's key."""
        delta = vals - encode_value(np.arange(len(vals)), 0)
        valid = (delta >= 0) & (delta % VALUE_STEP == 0)
        return np.where(valid, delta // VALUE_STEP, -1)

    def check(self, system: GPUSystem, complete: bool = True) -> None:
        p = self.params
        pw = p.payload_large
        cap = p.capacity
        keys = system.read_words(self.tbl_key, cap)
        vals = system.read_words(self.tbl_val, cap)
        pays = system.read_words(self.pay, cap * pw).reshape(cap, pw)
        slots = np.arange(cap)
        final = np.zeros(cap, dtype=np.int64)
        for k, v in self.plan.final_versions.items():
            final[k] = v
        populated = slots < p.n_keys
        inserted = np.zeros(cap, dtype=bool)
        for k in self.plan.insert_keys:
            inserted[k] = True

        present = keys != 0
        self.require(
            bool(np.all(keys[present] == slots[present] + 1)),
            "serve_kvs: table holds a foreign key",
        )
        self.require(
            bool(np.all(populated <= present)),
            f"serve_kvs: {int((populated & ~present).sum())} populated "
            "keys vanished",
        )
        self.require(
            bool(np.all(present <= (populated | inserted))),
            "serve_kvs: phantom rows outside the key space",
        )
        # Value = some committed version of its key, no newer than the
        # last planned write.
        version = self.row_versions(vals)
        bad = present & ((version < 0) | (version > final))
        self.require(
            not bad.any(),
            f"serve_kvs: {int(bad.sum())} rows hold an impossible value, "
            f"first at slot {int(np.argmax(bad))}",
        )
        # Payload atomicity: every payload word of a present row belongs
        # to exactly the row's value version; absent rows and tail words
        # are zero.
        plen = self.plan.spec.payload_words(slots)
        col = np.arange(pw)[None, :]
        in_row = col < plen[:, None]
        expected = np.where(
            present[:, None] & in_row, vals[:, None] + 1 + col, 0
        )
        torn = pays != expected
        self.require(
            not torn.any(),
            f"serve_kvs: torn payload at slot "
            f"{int(np.argmax(torn.any(axis=1)))}",
        )
        absent = ~present
        self.require(
            bool(np.all(vals[absent] == 0)),
            "serve_kvs: absent rows hold values",
        )
        if complete:
            missing = inserted & ~present
            self.require(
                not missing.any(),
                f"serve_kvs: {int(missing.sum())} inserts missing",
            )
            stale = present & (version != final)
            self.require(
                not stale.any(),
                f"serve_kvs: {int(stale.sum())} rows behind their final "
                f"version, first at slot {int(np.argmax(stale))}",
            )


def build_serve_app(**overrides: Any) -> ServeKVS:
    return ServeKVS(**overrides)
