"""Deterministic YCSB-style workload generation for the serving layer.

A :class:`WorkloadSpec` fully determines a request stream: operation mix
(read / update / insert / read-modify-write), key popularity (zipfian
with configurable skew, or uniform), open-loop arrival process (Poisson
or uniform spacing at a configured rate), and per-key payload size
(small or large, fixed per key so payload-length invariants stay
checkable after a crash).  ``plan_workload`` expands the spec into a
:class:`Plan` — the request list plus its batching into kernel launches
— as a pure function of the spec, so the same seed always yields a
byte-identical stream (a test pins this via :meth:`Plan.digest`).  The
plan is read-only, so ``plan_workload`` memoises it: every caller with
an equal spec in one process shares one plan.

Batching rules:

* requests are admitted in arrival order, ``batch_requests`` at a time;
* writes to the same key within one batch are **combined**: only the
  last one applies (``Request.applies``), jumping the row straight to
  the newest version at the group commit — the classic group-commit
  write-combining rule.  Earlier writers still acknowledge at the same
  commit (their versions are subsumed), which keeps the final value
  schedule-independent without serializing hot-key traffic into
  degenerate one-request batches;
* within a batch, requests are stably sorted non-appliers-first, then
  small applying writes, then large applying writes.  One request maps
  to one thread, so this size segregation packs each persist path into
  as few warps as possible — the adaptive path selector
  (:mod:`repro.serve.txn`) decides per warp in effect, which is what
  makes per-size path selection pay off.
"""

from __future__ import annotations

import functools
import hashlib
import random
from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, List, Mapping, Tuple

import numpy as np

#: Operation kinds (stable wire names).
OP_READ = "read"
OP_UPDATE = "update"
OP_INSERT = "insert"
OP_RMW = "rmw"

#: Write-class operations: these consume a per-key version number and a
#: transaction slot in the batch's log.
WRITE_OPS = (OP_UPDATE, OP_INSERT, OP_RMW)

#: Named operation mixes, YCSB-style: weights for
#: (read, update, insert, rmw).
MIXES: Dict[str, Tuple[float, float, float, float]] = {
    "read_only": (1.0, 0.0, 0.0, 0.0),
    "read_heavy": (0.95, 0.05, 0.0, 0.0),  # YCSB-B
    "update_heavy": (0.5, 0.5, 0.0, 0.0),  # YCSB-A
    "rmw_heavy": (0.5, 0.2, 0.0, 0.3),  # YCSB-F flavour
    "insert_heavy": (0.4, 0.3, 0.3, 0.0),
}


@dataclass(frozen=True)
class WorkloadSpec:
    """Everything that determines a request stream."""

    seed: int = 7
    n_requests: int = 256
    mix: str = "rmw_heavy"
    #: Key popularity: "zipfian" (rank-ordered, skew ``theta``) or
    #: "uniform".
    popularity: str = "zipfian"
    theta: float = 0.99
    #: Keys populated at setup; reads/updates/RMWs target these.
    n_keys: int = 256
    #: Table slots; must cover ``n_keys`` plus every insert.
    capacity: int = 640
    #: Open-loop arrival process: "poisson" or "uniform".
    arrival: str = "poisson"
    #: Mean arrivals per thousand simulated cycles.
    rate_per_kcycle: float = 4.0
    #: Payload words for small / large keys; a key's class is fixed.
    payload_small: int = 2
    payload_large: int = 8
    #: Every ``large_every``-th key carries the large payload.
    large_every: int = 4
    #: Requests per kernel launch (group-commit granularity).
    batch_requests: int = 128

    def validate(self) -> "WorkloadSpec":
        if self.mix not in MIXES:
            raise ValueError(f"unknown mix {self.mix!r}; have {sorted(MIXES)}")
        if self.popularity not in ("zipfian", "uniform"):
            raise ValueError(f"unknown popularity {self.popularity!r}")
        if self.arrival not in ("poisson", "uniform"):
            raise ValueError(f"unknown arrival {self.arrival!r}")
        if not 0 < self.n_keys <= self.capacity:
            raise ValueError("need 0 < n_keys <= capacity")
        if self.payload_small > self.payload_large:
            raise ValueError("payload_small must not exceed payload_large")
        if self.batch_requests < 1 or self.n_requests < 1:
            raise ValueError("need n_requests >= 1 and batch_requests >= 1")
        if self.rate_per_kcycle <= 0:
            raise ValueError("rate_per_kcycle must be positive")
        if self.large_every < 1:
            raise ValueError("large_every must be >= 1")
        return self

    def payload_words(self, key: "np.ndarray | int") -> np.ndarray:
        """Payload length of a key, or of each key in an array — a pure
        function of the key, so the crash checker knows every row's
        expected shape."""
        return np.where(
            key % self.large_every == 0, self.payload_large, self.payload_small
        )


@dataclass(frozen=True)
class Request:
    """One client request of the stream."""

    index: int  #: position in arrival order
    op: str
    key: int
    arrival: int  #: arrival time, cycles
    payload: int  #: payload words (fixed per key)
    version: int  #: per-key write sequence number; 0 for reads
    #: False for a write combined away by a later write to the same key
    #: in the same batch: it acknowledges at the group commit but its
    #: version never lands in the table.
    applies: bool = True

    @property
    def is_write(self) -> bool:
        return self.op in WRITE_OPS

    @property
    def is_applying_write(self) -> bool:
        return self.is_write and self.applies


@dataclass(frozen=True)
class Batch:
    """One kernel launch worth of requests (one group commit)."""

    index: int
    requests: Tuple[Request, ...]

    @property
    def ready_time(self) -> int:
        """Earliest cycle the batch can launch: its last arrival."""
        return max(r.arrival for r in self.requests)


@dataclass(frozen=True)
class Plan:
    """A fully expanded workload: the stream and its batching."""

    spec: WorkloadSpec
    requests: Tuple[Request, ...]
    batches: Tuple[Batch, ...]
    #: Final committed version per written key (absent = never
    #: written); read-only, like the rest of the plan.
    final_versions: Mapping[int, int]
    #: Keys the stream inserts, ascending.
    insert_keys: Tuple[int, ...]

    def digest(self) -> str:
        """SHA-256 over the canonical stream encoding — the determinism
        tests' byte-identity witness."""
        blob = hashlib.sha256()
        for r in self.requests:
            blob.update(
                f"{r.index}:{r.op}:{r.key}:{r.arrival}:"
                f"{r.payload}:{r.version}:{int(r.applies)};".encode("ascii")
            )
        for b in self.batches:
            blob.update(
                f"b{b.index}=" .encode("ascii")
                + ",".join(str(r.index) for r in b.requests).encode("ascii")
                + b"|"
            )
        return blob.hexdigest()


# ----------------------------------------------------------------------
# generation
# ----------------------------------------------------------------------
def _zipf_cdf(n: int, theta: float) -> List[float]:
    """Cumulative popularity of ranks ``0..n-1`` under a zipfian with
    exponent *theta* (YCSB's ``zipfian_const``)."""
    weights = [1.0 / float(rank + 1) ** theta for rank in range(n)]
    total = sum(weights)
    cdf: List[float] = []
    acc = 0.0
    for w in weights:
        acc += w
        cdf.append(acc / total)
    return cdf


def _pick_rank(cdf: List[float], u: float) -> int:
    """Inverse-CDF sampling by bisection (deterministic, stdlib-only)."""
    lo, hi = 0, len(cdf) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if cdf[mid] < u:
            lo = mid + 1
        else:
            hi = mid
    return lo


def generate_requests(spec: WorkloadSpec) -> List[Request]:
    """The seeded request stream, before batching (versions = 0)."""
    spec.validate()
    rng = random.Random(spec.seed)
    read_w, update_w, insert_w, _rmw_w = MIXES[spec.mix]
    cdf = (
        _zipf_cdf(spec.n_keys, spec.theta)
        if spec.popularity == "zipfian"
        else []
    )
    mean_gap = 1000.0 / spec.rate_per_kcycle
    clock = 0.0
    next_insert = spec.n_keys
    requests: List[Request] = []
    for index in range(spec.n_requests):
        if spec.arrival == "poisson":
            clock += rng.expovariate(1.0 / mean_gap)
        else:
            clock += mean_gap
        u = rng.random()
        if u < read_w:
            op = OP_READ
        elif u < read_w + update_w:
            op = OP_UPDATE
        elif u < read_w + update_w + insert_w:
            op = OP_INSERT
        else:
            op = OP_RMW
        if op == OP_INSERT and next_insert >= spec.capacity:
            op = OP_UPDATE  # table full: degrade to an update
        if op == OP_INSERT:
            key = next_insert
            next_insert += 1
        elif spec.popularity == "zipfian":
            key = _pick_rank(cdf, rng.random())
        else:
            key = rng.randrange(spec.n_keys)
        requests.append(
            Request(
                index=index,
                op=op,
                key=key,
                arrival=int(clock),
                payload=int(spec.payload_words(key)),
                version=0,
            )
        )
    return requests


# ----------------------------------------------------------------------
# batching
# ----------------------------------------------------------------------
def _order_in_batch(requests: List[Request]) -> Tuple[Request, ...]:
    """Stable size segregation: non-applying requests first, then small
    applying writes, then large ones (see module docstring)."""
    return tuple(
        sorted(
            requests,
            key=lambda r: (1, r.payload) if r.is_applying_write else (0, 0),
        )
    )


@functools.lru_cache(maxsize=16)
def plan_workload(spec: WorkloadSpec) -> Plan:
    """Expand *spec* into the batched stream with versions assigned.

    Memoised per process (bounded): the plan is a pure function of the
    frozen spec and nothing can write to it, so every caller with an
    equal spec — each :class:`~repro.serve.app.ServeKVS`, the crash
    harness's baseline and recovery apps among them — shares it.
    ``plan_workload.__wrapped__`` recomputes without the memo."""
    raw = generate_requests(spec)
    versions: Dict[int, int] = {}
    batches: List[Batch] = []
    for start in range(0, len(raw), spec.batch_requests):
        chunk = raw[start : start + spec.batch_requests]
        # Every write consumes a version in arrival order; only the
        # last write per key in the batch applies (write combining).
        last_writer: Dict[int, int] = {}
        for pos, req in enumerate(chunk):
            if req.is_write:
                last_writer[req.key] = pos
        admitted: List[Request] = []
        for pos, req in enumerate(chunk):
            if req.is_write:
                versions[req.key] = versions.get(req.key, 0) + 1
                req = Request(
                    index=req.index,
                    op=req.op,
                    key=req.key,
                    arrival=req.arrival,
                    payload=req.payload,
                    version=versions[req.key],
                    applies=last_writer[req.key] == pos,
                )
            admitted.append(req)
        batches.append(
            Batch(index=len(batches), requests=_order_in_batch(admitted))
        )
    ordered = tuple(
        sorted(
            (r for b in batches for r in b.requests),
            key=lambda r: r.index,
        )
    )
    return Plan(
        spec=spec,
        requests=ordered,
        batches=tuple(batches),
        final_versions=MappingProxyType(dict(sorted(versions.items()))),
        insert_keys=tuple(sorted({r.key for r in raw if r.op == OP_INSERT})),
    )
