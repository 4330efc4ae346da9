"""Enumerating the crash images a persistency model permits.

A crash image corresponds to a *downward-closed* subset (order ideal)
of the pmo DAG (if W2 is durable, everything pmo-before it is durable),
with per-location values chosen among the pmo-maximal durable writes to
that location.  dFences additionally force durability: every persist
pmo-before a *completed* dFence must be in every image (completion of a
dFence guarantees the issuing thread's prior persists are durable).

Sets of events are bitmasks (bit ``eid``).  Ideals are enumerated
directly, one topologically ordered node at a time, so the cost follows
the number of ideals rather than 2^n.  For litmus-sized programs the
enumeration is exhaustive; apps use the simulator's persist log instead
(:mod:`repro.crash`).
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.formal.events import EventKind, LitmusProgram
from repro.formal.relations import ExecutionWitness, Relation, bits, build_pmo

#: A crash image: location -> durable value (missing = initial zero).
CrashImageT = Dict[str, int]


def order_ideals(relation: Relation, within: int, base: int = 0) -> List[int]:
    """Every order ideal of *relation* restricted to the nodes in the
    mask *within* that contains the ideal *base*.  Nodes come in
    topological order, so each node's ancestors are already decided."""
    ideals = [base]
    for n in relation.nodes:
        if not within >> n & 1 or base >> n & 1:
            continue
        needs = relation.anc[n] & within
        ideals += [ideal | 1 << n for ideal in ideals if needs & ~ideal == 0]
    return ideals


def allowed_crash_images(
    witness: ExecutionWitness,
    completed_dfences: Optional[Iterable[int]] = None,
) -> List[CrashImageT]:
    """Every PM image the model allows after a crash of this execution.

    *completed_dfences* lists eids of dFence events known to have
    completed before the crash; their preceding persists become
    mandatory in every image.
    """
    pmo = build_pmo(witness)
    # Acquires are blocking spins: a thread whose acquire observed no
    # release never executes its later events, so those persists cannot
    # appear in any image of this witness.
    executed = _executed_mask(witness)
    base = _dfence_mandatory(witness.program, completed_dfences or ()) & executed
    for eid in bits(base):
        base |= pmo.anc[eid] & executed

    images: Set[Tuple[Tuple[str, int], ...]] = set()
    for ideal in order_ideals(pmo, executed, base):
        images.update(_value_choices(ideal, pmo))
    return [dict(image) for image in sorted(images)]


def allowed_final_images(witness: ExecutionWitness) -> List[CrashImageT]:
    """Every PM image the model allows once the machine has fully
    drained: the durable set is *all* executed persists (including
    PM-resident release flags), and only the per-location value choice
    among pmo-maximal writes remains free.

    The conformance checker compares the simulator's post-``sync()``
    image against this set: an execution whose final image is missing a
    persist (an acknowledged-but-never-written drain, say) is flagged
    even though every *crash* image it produced was an allowed subset.
    """
    pmo = build_pmo(witness)
    durable = _executed_mask(witness) & sum(1 << n for n in pmo.nodes)
    images = set(_value_choices(durable, pmo))
    return [dict(image) for image in sorted(images)]


def _executed_mask(witness: ExecutionWitness) -> int:
    """Mask of the event ids that actually execute under this witness.

    Each thread truncates at its first acquire that observed no release
    — and an acquire can only observe a release that itself executed, so
    truncation cascades to a fixpoint.
    """
    executed = sum(1 << e.eid for e in witness.program.events())
    while True:
        next_executed = 0
        for thread in witness.program.threads:
            for event in thread.events:
                if event.kind is EventKind.PACQ:
                    source = witness.reads_from.get(event.eid)
                    if source is None or not executed >> source & 1:
                        break
                next_executed |= 1 << event.eid
        if next_executed == executed:
            return executed
        executed = next_executed


def _dfence_mandatory(program: LitmusProgram, completed_dfences: Iterable[int]) -> int:
    """Persists that every image must contain: those program-ordered
    before a completed dFence of the same thread."""
    completed = set(completed_dfences)
    mandatory = 0
    for thread in program.threads:
        seen = 0
        for event in thread.events:
            if event.is_persist:
                seen |= 1 << event.eid
            elif event.kind is EventKind.DFENCE and event.eid in completed:
                mandatory |= seen
    return mandatory


def _value_choices(
    durable: int, pmo: Relation
) -> Iterable[Tuple[Tuple[str, int], ...]]:
    """Per-location value combinations for one durable set.

    Writes to the same location that are pmo-unordered may land in any
    order; the surviving value is any pmo-maximal durable write.
    """
    by_loc: Dict[str, int] = defaultdict(int)
    for eid in bits(durable):
        by_loc[pmo.events[eid].loc] |= 1 << eid

    per_loc_options: List[List[Tuple[str, int]]] = []
    for loc, group in sorted(by_loc.items()):
        overwritten = 0
        for eid in bits(group):
            overwritten |= pmo.anc[eid] & group
        per_loc_options.append(
            [(loc, pmo.events[eid].value) for eid in bits(group & ~overwritten)]
        )
    for combo in itertools.product(*per_loc_options):
        yield tuple(sorted(combo))
