"""Building po / vmo / pmo for an execution witness (Boxes 1 and 2).

The model is *axiomatic*: given a litmus program and a synchronization
witness (which release each acquire observed), the relations are built
as transitively closed :class:`Relation` values — one ancestor bitmask
(bit ``eid`` set = event ``eid`` is ordered before) per node:

* ``po`` — program order within each thread.
* ``vmo`` — the fragment of volatile memory order the witness fixes:
  po edges plus release→acquire edges for observed same-location pairs
  of sufficient scope (scoped release consistency).
* ``pmo`` — Box 2's two rules plus transitivity:

  - *intra-thread*: ``W po OF po W'  ⟹  W pmo W'`` (dFence counts as an
    ordering fence too);
  - *inter-thread*: ``W po pRel(X,S) vmo pAcq(X,S) po W'  ⟹  W pmo W'``
    when S covers both threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Optional, Tuple

from repro.common.errors import LitmusError
from repro.formal.events import Event, EventKind, LitmusProgram, ReadsFrom


@dataclass
class ExecutionWitness:
    """One resolved execution: the program plus acquire pairings."""

    program: LitmusProgram
    reads_from: ReadsFrom = field(default_factory=dict)

    def release_of(self, acq: Event) -> Optional[Event]:
        rel_eid = self.reads_from.get(acq.eid)
        if rel_eid is None:
            return None
        for event in self.program.events():
            if event.eid == rel_eid:
                return event
        raise LitmusError(f"witness references unknown event {rel_eid}")


@dataclass(frozen=True)
class Relation:
    """A transitively closed DAG over event ids.

    ``anc[n]`` has bit ``m`` set iff ``m`` is ordered before ``n``; its
    keys are in topological order.  ``events`` maps every eid of the
    program to its event.
    """

    events: Dict[int, Event]
    anc: Dict[int, int]

    @property
    def nodes(self) -> Tuple[int, ...]:
        return tuple(self.anc)

    def has_edge(self, a: int, b: int) -> bool:
        return self.anc[b] >> a & 1 == 1

    def ancestors(self, eid: int) -> FrozenSet[int]:
        return frozenset(bits(self.anc[eid]))


def transitive_closure(
    nodes: Iterable[int], preds: Dict[int, int], events: Dict[int, Event], error: str
) -> Relation:
    """Close the DAG given by direct-predecessor masks *preds* (missing
    = none) with one OR-sweep in topological order; a cycle raises
    ``LitmusError(error)``."""
    pending, anc, placed = list(nodes), {}, 0
    while pending:
        ready = [n for n in pending if preds.get(n, 0) & ~placed == 0]
        if not ready:
            raise LitmusError(error)
        for n in ready:
            anc[n] = preds.get(n, 0)
            for p in bits(anc[n]):
                anc[n] |= anc[p]
            placed |= 1 << n
        pending = [n for n in pending if not placed >> n & 1]
    return Relation(events, anc)  # anc is in topological order


def build_po(program: LitmusProgram) -> Relation:
    """Program order: a chain per thread."""
    anc: Dict[int, int] = {}
    for thread in program.threads:
        before = 0
        for event in thread.events:
            anc[event.eid] = before
            before |= 1 << event.eid
    return Relation({event.eid: event for event in program.events()}, anc)


def build_vmo(witness: ExecutionWitness) -> Relation:
    """The witness-determined fragment of volatile memory order.

    vmo contains po (per-thread order is respected by the scoped model
    for same-thread operations) and one release→acquire edge for every
    observed pairing whose scope covers both threads.  The relation is
    transitively closed, as Box 1 requires.
    """
    program = witness.program
    po = build_po(program)
    preds = dict(po.anc)  # closed ancestor masks are valid predecessors
    for acq in program.acquires():
        rel = witness.release_of(acq)
        if rel is None:
            continue
        if rel.loc != acq.loc:
            raise LitmusError(
                f"acquire {acq} cannot read release {rel}: different locations"
            )
        if _covers(program, rel, acq):
            preds[acq.eid] |= 1 << rel.eid
    return transitive_closure(
        po.events, preds, po.events, "infeasible witness: cyclic vmo"
    )


def build_pmo(witness: ExecutionWitness) -> Relation:
    """Persist memory order over the program's PM writes (Box 2)."""
    program = witness.program
    events = build_vmo(witness).events  # also rejects an infeasible witness
    # Per event: its thread's persists po-before it and po-before its
    # last preceding fence; per thread: all of its persists.
    before: Dict[int, int] = {}
    fenced: Dict[int, int] = {}
    persists: Dict[int, int] = {}
    for thread in program.threads:
        seen = fence = 0
        for event in thread.events:
            before[event.eid], fenced[event.eid] = seen, fence
            if event.is_persist:
                seen |= 1 << event.eid
            elif event.kind in (EventKind.OFENCE, EventKind.DFENCE):
                fence = seen
        persists[thread.tid] = seen

    # Rule 1: intra-thread via ordering/durability fences.
    preds = {w.eid: fenced[w.eid] for w in program.persists()}
    # Rule 2: inter-thread via scoped release/acquire in vmo.
    for acq in program.acquires():
        rel = witness.release_of(acq)
        if rel is not None and _covers(program, rel, acq):
            for w2 in bits(persists[acq.tid] & ~before[acq.eid]):
                preds[w2] |= before[rel.eid]
    # A PM-resident release variable is itself a persist ordered after
    # the persists preceding the release.
    for rel in program.releases():
        if rel.loc is not None and rel.loc.startswith("p"):
            preds[rel.eid] = before[rel.eid]

    return transitive_closure(
        preds, preds, events, "pmo has a cycle; witness is inconsistent"
    )


def _covers(program: LitmusProgram, rel: Event, acq: Event) -> bool:
    return program.scope_covers(_narrowest(rel, acq), rel.tid, acq.tid)


def bits(mask: int) -> Iterable[int]:
    """The set bit positions of *mask*, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _narrowest(rel: Event, acq: Event):
    """The effective scope of a release/acquire pair is the narrowest of
    the two operations' scopes (Section 2)."""
    assert rel.scope is not None and acq.scope is not None
    order = {"block": 0, "device": 1, "system": 2}
    return rel.scope if order[rel.scope.value] <= order[acq.scope.value] else acq.scope
