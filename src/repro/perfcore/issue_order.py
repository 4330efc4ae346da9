"""The timing core's per-warp issue order over a fixed corpus.

A seeded corpus of per-warp op programs (computes with colliding
latencies, PM stores, PM loads, optional block barriers) runs through
the simulator while the kernel logs every generator resume from
*inside* the warp.  Each workload's issue log — including same-cycle
round-robin ties and FIFO ties between warps whose ready times collide
— is reduced to its sha256, together with the final simulated time and
the total event count.  :func:`render` is the exact contents of the
``issue_order`` pin (see :mod:`repro.perfcore.goldens`).
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Dict, List, Tuple

from repro.common.config import ModelName, small_system
from repro.system import GPUSystem

#: Warps per block on the ``small_system`` shape (128 threads / 32).
WPB = 4

#: Op alphabet.  Duplicate compute latencies are deliberate: equal
#: latencies make many warps ready on the same cycle, which is exactly
#: where the round-robin pick and the FIFO tie-break live.
OPS = [("c", 1), ("c", 1), ("c", 2), ("c", 2), ("c", 4), ("st", 3), ("ld", 0)]

CORPUS_SEED = 2023
CORPUS_SIZE = 200

Workload = Tuple[int, Dict[Tuple[int, int], List[Tuple[str, int]]], set]


def corpus() -> List[Workload]:
    """The fixed corpus: 1-2 blocks, 1-6 ops per warp, and a random
    subset of blocks ending in a barrier."""
    rng = random.Random(CORPUS_SEED)
    workloads: List[Workload] = []
    for _ in range(CORPUS_SIZE):
        n_blocks = rng.randint(1, 2)
        programs = {
            (block, warp): [rng.choice(OPS) for _ in range(rng.randint(1, 6))]
            for block in range(n_blocks)
            for warp in range(WPB)
        }
        barrier_blocks = {b for b in range(n_blocks) if rng.random() < 0.5}
        workloads.append((n_blocks, programs, barrier_blocks))
    return workloads


def run_workload(workload: Workload) -> Dict[str, object]:
    """One run, reduced to its issue-log hash, final time and event count."""
    n_blocks, programs, barrier_blocks = workload
    system = GPUSystem(small_system(ModelName.SBRP))
    data = system.pm_create("issueprop.data", 4 * n_blocks * 128)
    log: List[Tuple] = []

    def kernel(w):
        key = (w.block_id, w.warp_in_block)
        for step, (kind, arg) in enumerate(programs[key]):
            log.append((key, step, system.now))
            if kind == "c":
                yield w.compute(arg)
            elif kind == "st":
                yield w.st(data.base + 4 * w.tid, arg + w.lane)
            else:
                yield w.ld(data.base + 4 * w.tid)
        if w.block_id in barrier_blocks:
            log.append((key, "barrier", system.now))
            yield w.sync()

    system.launch(kernel, n_blocks, name="issueprop")
    system.sync()
    encoded = json.dumps(log, separators=(",", ":")).encode()
    return {
        "issue_log_sha256": hashlib.sha256(encoded).hexdigest(),
        "now": system.now,
        "events": int(system.stat("engine.events_processed")),
    }


def render() -> str:
    """The pin file's exact contents: every workload's run, in corpus order."""
    pinned = [run_workload(workload) for workload in corpus()]
    return json.dumps(pinned, indent=1, sort_keys=True) + "\n"
