"""The litmus library: directed programs with their expectations as data.

The fuzzer explores; the library *aims*.  Its **corpus**
(:func:`corpus_programs`) is what every conformance run includes: each
program targets one specific ordering mechanism, chosen so that every
shipped mutant (:mod:`repro.check.mutants`) is caught by at least one
of them — the fuzzer then provides breadth on top.  Three **paper-only**
programs (Figure 4's oFence logging, the fixed twin of the Section 5.3
scope mismatch, an intra-thread oFence chain) sit outside the corpus.

Each program carries an :class:`Expectation`, checked against the
axiomatic model by :func:`unmet_expectations`; the fault campaign's
formal oracle (:mod:`repro.faults.oracles`) runs library programs by
name.

Location layout matters: the bridge assigns addresses by sorted
location name at one-line stride, so with the default two-partition
memory system consecutive names land on *different* NVM partitions.
Programs that probe acceptance-order inversions put two persists on one
partition (``pA``/``pC``) and the ordered-after write on the other
(``pB``) — the first partition's WPQ backs up under congestion while
the second stays empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

from repro.common.config import Scope
from repro.formal.events import EventKind, LitmusProgram

from repro.check.oracle import allowed_unconstrained

#: A partial crash image: location -> value, matched on the locations it
#: mentions only (a location absent from a crash image reads 0).
Partial = Dict[str, int]


@dataclass(frozen=True)
class Expectation:
    """What the axiomatic model must say about one library program."""

    #: Partial images no allowed crash image may match.
    forbidden: Tuple[Partial, ...] = ()
    #: Partial images some allowed crash image must match.
    required: Tuple[Partial, ...] = ()
    #: Judge the images with every dFence completed before the crash.
    dfences_completed: bool = False
    #: The static scope-bug detector must report a misuse.
    scope_bug: bool = False


#: Every library program's body by name, corpus first, in registry order.
LIBRARY: Dict[str, Callable[[LitmusProgram], None]] = {}
EXPECTATIONS: Dict[str, Expectation] = {}
_CORPUS: List[str] = []


def _entry(corpus: bool = True, **expectation: Any) -> Callable:
    """Register a program body under its function name."""

    def register(body: Callable[[LitmusProgram], None]) -> Callable:
        LIBRARY[body.__name__] = body
        EXPECTATIONS[body.__name__] = Expectation(**expectation)
        if corpus:
            _CORPUS.append(body.__name__)
        return body

    return register


@_entry(forbidden=({"pB": 1, "pA": 0}, {"pB": 1, "pC": 0}))
def mp_ofence_split(p: LitmusProgram) -> None:
    """Message passing over oFence with the writes partition-split."""
    p.thread(block=0).w("pA", 1).w("pC", 1).ofence().w("pB", 1)


@_entry(forbidden=({"pB": 1, "pA": 0}, {"pB": 1, "pC": 0}))
def block_release_pm_flag(p: LitmusProgram) -> None:
    """Block-scope release of a PM-resident flag after two persists.

    The program that exposed the eager-flag bug: the flag ``pB`` must
    not be accepted before ``pA``/``pC`` even though the release itself
    never leaves the SM.
    """
    p.thread(block=0).w("pA", 1).w("pC", 1).prel("pB", 1, Scope.BLOCK)


@_entry(forbidden=({"pB": 1, "pA": 0}, {"pB": 1, "pC": 0}))
def device_release_pm_flag(p: LitmusProgram) -> None:
    """Device-scope release of a PM flag: the ODM must force-drain."""
    p.thread(block=0).w("pA", 1).w("pC", 1).prel("pB", 1, Scope.DEVICE)


@_entry(forbidden=({"pB": 1, "pA": 0}, {"pF": 1, "pA": 0}))
def device_release_consumer(p: LitmusProgram) -> None:
    """Cross-block consumer: rule 2's inter-thread pmo edge."""
    p.thread(block=0).w("pA", 1).prel("pF", 1, Scope.DEVICE)
    p.thread(block=1).pacq("pF", Scope.DEVICE).w("pB", 1)


@_entry(forbidden=({"pB": 1, "pA": 0},))
def block_release_consumer(p: LitmusProgram) -> None:
    """Same-block consumer over a volatile flag: the scopes win."""
    p.thread(block=0).w("pA", 1).prel("vF", 1, Scope.BLOCK)
    p.thread(block=0).pacq("vF", Scope.BLOCK).w("pB", 1)


@_entry(required=({"pB": 1, "pA": 0},), scope_bug=True)
def scope_mismatch(p: LitmusProgram) -> None:
    """Block-scope pair across blocks (the Section 5.3 bug): NO pmo
    edge, so pB-without-pA is reachable."""
    p.thread(block=0).w("pA", 1).prel("vF", 1, Scope.BLOCK)
    p.thread(block=1).pacq("vF", Scope.BLOCK).w("pB", 1)


@_entry(forbidden=({"pA": 0},), dfences_completed=True)
def dfence_then_write(p: LitmusProgram) -> None:
    """dFence durability: pA must be durable when the fence completes."""
    p.thread(block=0).w("pA", 1).dfence().w("pB", 1)


@_entry(forbidden=({"pA": 0}, {"pC": 0}), dfences_completed=True)
def dfence_split(p: LitmusProgram) -> None:
    """dFence with partition-split persists on both sides."""
    p.thread(block=0).w("pA", 1).w("pC", 1).dfence().w("pB", 1)


@_entry(required=({"pX": 0}, {"pX": 1}, {"pX": 2}))
def overwrite_chain(p: LitmusProgram) -> None:
    """Same-location overwrite across an oFence: pX must end at 2, and
    a crash between the writes leaves 1."""
    p.thread(block=0).w("pX", 1).ofence().w("pX", 2)


@_entry(required=({"pB": 1, "pA": 0},))
def unfenced_pair(p: LitmusProgram) -> None:
    """Two unordered persists: every subset/image is allowed (coverage)."""
    p.thread(block=0).w("pA", 1).w("pB", 1)


@_entry(forbidden=({"pC": 1, "pA": 0}, {"pC": 1, "pB": 0}, {"pB": 1, "pA": 0}))
def transitive_chain(p: LitmusProgram) -> None:
    """pmo transitivity through two device-scope release hops."""
    p.thread(block=0).w("pA", 1).prel("vF", 1, Scope.DEVICE)
    p.thread(block=1).pacq("vF", Scope.DEVICE).w("pB", 1).prel(
        "vG", 1, Scope.DEVICE
    )
    p.thread(block=1).pacq("vG", Scope.DEVICE).w("pC", 1)


@_entry(
    corpus=False,
    forbidden=({"pFlag": 1, "pData": 0},),
    required=({}, {"pData": 1}, {"pData": 1, "pFlag": 1}),
)
def mp_ofence(p: LitmusProgram) -> None:
    """Figure 4's logging discipline: data, oFence, then the flag."""
    p.thread(block=0).w("pData", 1).ofence().w("pFlag", 1)


@_entry(corpus=False, forbidden=({"pB": 1, "pA": 0},))
def device_release_cross_block(p: LitmusProgram) -> None:
    """``scope_mismatch`` fixed with device scope: the pmo edge holds."""
    p.thread(block=0).w("pA", 1).prel("vF", 1, Scope.DEVICE)
    p.thread(block=1).pacq("vF", Scope.DEVICE).w("pB", 1)


@_entry(corpus=False, forbidden=({"pC": 3, "pB": 0}, {"pB": 2, "pA": 0}))
def intra_thread_chain(p: LitmusProgram) -> None:
    """Box 2's rule 1 twice: two oFences chain three persists."""
    p.thread(block=0).w("pA", 1).ofence().w("pB", 2).ofence().w("pC", 3)


def library_program(name: str) -> LitmusProgram:
    """A fresh (independent event-id) instance of library program *name*."""
    program = LitmusProgram(name)
    LIBRARY[name](program)
    return program.validate()


def corpus_programs() -> List[LitmusProgram]:
    """Fresh instances of the corpus programs, in registry order."""
    return [library_program(name) for name in _CORPUS]


def unmet_expectations(
    program: LitmusProgram, expectation: Expectation
) -> List[Tuple[str, Partial]]:
    """``("forbidden", partial)`` for each forbidden partial image the
    model allows, ``("required", partial)`` for each required one it
    does not; empty when the model meets *expectation*."""
    completed = [
        e.eid
        for e in program.events()
        if expectation.dfences_completed and e.kind is EventKind.DFENCE
    ]
    allowed = [dict(image) for image in allowed_unconstrained(program, completed)]

    def reachable(partial: Partial) -> bool:
        return any(
            all(image.get(loc, 0) == value for loc, value in partial.items())
            for image in allowed
        )

    return [("forbidden", p) for p in expectation.forbidden if reachable(p)] + [
        ("required", p) for p in expectation.required if not reachable(p)
    ]
