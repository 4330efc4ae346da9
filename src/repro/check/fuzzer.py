"""Seeded litmus-program fuzzer over the full SBRP vocabulary.

Programs are small by construction — the axiomatic side enumerates
every order ideal of the pmo DAG, and the number of ideals can grow
exponentially with the persist count (an unordered antichain of n
persists has 2^n) — and *operationally safe* by construction:

* an acquire only ever targets a flag released by a **lower-numbered**
  thread, so the wait graph is acyclic and every spin terminates
  (releases publish their value regardless of scope; scope only decides
  whether the axiomatic pmo edge exists);
* each release gets a **fresh** flag location with a nonzero value and
  flag locations are disjoint from data locations, so the value an
  acquire observes maps unambiguously back to one release — that
  mapping is how the oracle reconstructs the observed witness;
* per-location values are unique (a counter), so crash images decide
  "which write survived" without ambiguity.

Everything is driven by one ``random.Random(seed)``: the same seed
always yields the same program, on every platform and worker count.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from repro.common.config import Scope
from repro.formal.events import LitmusProgram

#: PM / volatile data locations (flags come from a separate pool).
DATA_PM = ("pA", "pB", "pC", "pD")
DATA_VOL = ("va", "vb")

#: Hard caps keeping the number of pmo order ideals litmus-sized.
MAX_PERSISTS = 6
MAX_RELEASES = 2
MAX_ACQUIRES = 2
MAX_THREADS = 3
MIN_EVENTS_PER_THREAD = 2
MAX_EVENTS_PER_THREAD = 4


def _flag_name(index: int, persistent: bool) -> str:
    return f"{'p' if persistent else 'v'}f{index}"


def generate_program(seed: int, index: int = 0) -> LitmusProgram:
    """The *index*-th program of the stream seeded by *seed*."""
    rng = random.Random((seed * 1_000_003 + index) & 0xFFFFFFFF)
    n_threads = rng.randint(1, MAX_THREADS)
    n_blocks = 1 if n_threads == 1 else rng.randint(1, 2)
    blocks = [rng.randrange(n_blocks) for _ in range(n_threads)]

    next_value = {loc: 1 for loc in DATA_PM + DATA_VOL}
    persists = 0  # PM data writes + PM-resident release flags
    releases: List[Tuple[int, str, int, Scope]] = []  # (tid, loc, value, scope)
    acquired: List[Tuple[int, str]] = []  # (tid, loc) pairs already used
    n_acquires = 0

    # Per-thread event plans, built as plain tuples first so the caps
    # can be enforced before any Event ids are allocated.
    plans: List[List[Tuple]] = []
    for tid in range(n_threads):
        plan: List[Tuple] = []
        length = rng.randint(MIN_EVENTS_PER_THREAD, MAX_EVENTS_PER_THREAD)
        for slot in range(length):
            menu: List[str] = ["w_vol", "read", "ofence"]
            if persists < MAX_PERSISTS:
                menu += ["w_pm"] * 4  # persists are the interesting events
            menu += ["dfence"]
            if len(releases) < MAX_RELEASES and slot == length - 1:
                # Releasing last keeps "persists before the release" the
                # common shape (and a release mid-thread adds little).
                menu += ["prel"] * 2
            candidates = [
                (rtid, loc, value, scope)
                for rtid, loc, value, scope in releases
                if rtid < tid and (tid, loc) not in acquired
            ]
            if candidates and n_acquires < MAX_ACQUIRES:
                menu += ["pacq"] * 3
            choice = rng.choice(menu)
            last_chance = tid == n_threads - 1 and slot == length - 1
            if last_chance and persists == 0:
                choice = "w_pm"  # every program persists something
            if choice == "w_pm":
                loc = rng.choice(DATA_PM)
                value, next_value[loc] = next_value[loc], next_value[loc] + 1
                plan.append(("w", loc, value))
                persists += 1
            elif choice == "w_vol":
                loc = rng.choice(DATA_VOL)
                value, next_value[loc] = next_value[loc], next_value[loc] + 1
                plan.append(("w", loc, value))
            elif choice == "read":
                plan.append(("r", rng.choice(DATA_PM + DATA_VOL)))
            elif choice == "ofence":
                plan.append(("ofence",))
            elif choice == "dfence":
                plan.append(("dfence",))
            elif choice == "prel":
                persistent = persists < MAX_PERSISTS and rng.random() < 0.5
                loc = _flag_name(len(releases), persistent)
                if persistent:
                    persists += 1
                scope = rng.choice((Scope.BLOCK, Scope.DEVICE))
                plan.append(("prel", loc, 1, scope))
                releases.append((tid, loc, 1, scope))
            else:  # pacq
                rtid, loc, value, rel_scope = rng.choice(candidates)
                scope = rng.choice((rel_scope, Scope.DEVICE))
                plan.append(("pacq", loc, scope))
                acquired.append((tid, loc))
                n_acquires += 1
        plans.append(plan)

    program = LitmusProgram(f"fuzz-{seed}-{index}")
    for tid, plan in enumerate(plans):
        thread = program.thread(block=blocks[tid])
        for op in plan:
            if op[0] == "w":
                thread.w(op[1], op[2])
            elif op[0] == "r":
                thread.r(op[1])
            elif op[0] == "ofence":
                thread.ofence()
            elif op[0] == "dfence":
                thread.dfence()
            elif op[0] == "prel":
                thread.prel(op[1], op[2], op[3])
            else:
                thread.pacq(op[1], op[2])
    return program.validate()


def generate_stream(seed: int, count: int) -> List[LitmusProgram]:
    return [generate_program(seed, i) for i in range(count)]
