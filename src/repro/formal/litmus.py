"""Litmus tests for the SBRP specification.

A :class:`LitmusTest` pairs a program with *forbidden* crash images;
:func:`run_litmus` enumerates every execution witness and every crash
image the model allows and checks none is forbidden (and that each
*required* image is reachable).  The library covers the paper's worked
examples:

* ``mp_ofence`` — message passing through PM with oFence (Figure 4's
  logging discipline): the "flag without data" image is forbidden.
* ``no_fence`` — the same without the fence: the bad image IS allowed.
* ``scoped_release`` — inter-thread PMO via block-scope release/acquire
  within one block (Box 2's rule 2).
* ``scope_mismatch`` — the Section 5.3 scoped persistency bug: a
  block-scope release observed across blocks gives NO pmo edge, so the
  bad image is allowed.
* ``transitive_chain`` — Box 1's transitivity across three threads.
* ``dfence_durability`` — a completed dFence forces its predecessors
  into every image.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.config import Scope
from repro.common.errors import LitmusError
from repro.formal.crash_states import CrashImageT, allowed_crash_images
from repro.formal.events import LitmusProgram, all_reads_from
from repro.formal.relations import ExecutionWitness


@dataclass
class LitmusResult:
    name: str
    images: List[CrashImageT]
    violations: List[CrashImageT]
    missing: List[CrashImageT]

    @property
    def passed(self) -> bool:
        return not self.violations and not self.missing


@dataclass
class LitmusTest:
    """A litmus program plus its expected crash-image properties."""

    name: str
    build: Callable[[], LitmusProgram]
    #: Predicates over images; a matching image fails the test.
    forbidden: Sequence[Callable[[CrashImageT], bool]] = ()
    #: Images that must be reachable (exact location->value matches,
    #: compared on the mentioned locations only).
    required: Sequence[CrashImageT] = ()
    #: Eids of the dFence events treated as completed before the crash.
    completed_dfences: Sequence[int] = ()


def run_litmus(test: LitmusTest) -> LitmusResult:
    """Enumerate all witnesses x crash images and check expectations."""
    program = test.build().validate()
    images: List[CrashImageT] = []
    seen = set()
    for reads_from in all_reads_from(program):
        witness = ExecutionWitness(program, reads_from)
        try:
            witness_images = allowed_crash_images(
                witness, test.completed_dfences
            )
        except LitmusError:
            continue  # infeasible witness (cyclic synchronization)
        for image in witness_images:
            key = tuple(sorted(image.items()))
            if key not in seen:
                seen.add(key)
                images.append(image)
    violations = [
        image
        for image in images
        if any(predicate(image) for predicate in test.forbidden)
    ]
    missing = [
        wanted
        for wanted in test.required
        if not any(_matches(image, wanted) for image in images)
    ]
    return LitmusResult(test.name, images, violations, missing)


def _matches(image: CrashImageT, wanted: CrashImageT) -> bool:
    return all(image.get(loc, 0) == value for loc, value in wanted.items())


# ----------------------------------------------------------------------
# the library
# ----------------------------------------------------------------------
def _mp_ofence() -> LitmusProgram:
    prog = LitmusProgram("mp_ofence")
    t0 = prog.thread(block=0)
    t0.w("pData", 1).ofence().w("pFlag", 1)
    return prog


def _no_fence() -> LitmusProgram:
    prog = LitmusProgram("no_fence")
    t0 = prog.thread(block=0)
    t0.w("pData", 1).w("pFlag", 1)
    return prog


def _scoped_release(scope: Scope, same_block: bool) -> LitmusProgram:
    prog = LitmusProgram("scoped_release")
    t0 = prog.thread(block=0)
    t0.w("pX", 1).prel("flag", 1, scope)
    t1 = prog.thread(block=0 if same_block else 1)
    t1.pacq("flag", scope).w("pY", 1)
    return prog


def _transitive_chain() -> LitmusProgram:
    prog = LitmusProgram("transitive_chain")
    t0 = prog.thread(block=0)
    t0.w("pA", 1).prel("f0", 1, Scope.DEVICE)
    t1 = prog.thread(block=1)
    t1.pacq("f0", Scope.DEVICE).w("pB", 1).prel("f1", 1, Scope.DEVICE)
    t2 = prog.thread(block=2)
    t2.pacq("f1", Scope.DEVICE).w("pC", 1)
    return prog


def _dfence_durability() -> LitmusProgram:
    prog = LitmusProgram("dfence_durability")
    t0 = prog.thread(block=0)
    t0.w("pA", 1).w("pB", 2).dfence().w("pC", 3)
    return prog


def _intra_thread_chain() -> LitmusProgram:
    prog = LitmusProgram("intra_thread_chain")
    t0 = prog.thread(block=0)
    t0.w("pA", 1).ofence().w("pB", 2).ofence().w("pC", 3)
    return prog


def _same_location_overwrite() -> LitmusProgram:
    prog = LitmusProgram("same_location_overwrite")
    t0 = prog.thread(block=0)
    t0.w("pX", 1).ofence().w("pX", 2)
    return prog


LITMUS_TESTS: Dict[str, LitmusTest] = {
    "mp_ofence": LitmusTest(
        name="mp_ofence",
        build=_mp_ofence,
        forbidden=[lambda im: im.get("pFlag", 0) == 1 and im.get("pData", 0) != 1],
        required=[{}, {"pData": 1}, {"pData": 1, "pFlag": 1}],
    ),
    "no_fence": LitmusTest(
        name="no_fence",
        build=_no_fence,
        # Without a fence the bad image must be REACHABLE.
        required=[{"pFlag": 1, "pData": 0}],
    ),
    "block_release_same_block": LitmusTest(
        name="block_release_same_block",
        build=lambda: _scoped_release(Scope.BLOCK, same_block=True),
        forbidden=[lambda im: im.get("pY", 0) == 1 and im.get("pX", 0) != 1],
    ),
    "scope_mismatch_bug": LitmusTest(
        name="scope_mismatch_bug",
        build=lambda: _scoped_release(Scope.BLOCK, same_block=False),
        # The Section 5.3 bug: block scope across blocks gives no PMO,
        # so pY-without-pX must be reachable.
        required=[{"pY": 1, "pX": 0}],
    ),
    "device_release_cross_block": LitmusTest(
        name="device_release_cross_block",
        build=lambda: _scoped_release(Scope.DEVICE, same_block=False),
        forbidden=[lambda im: im.get("pY", 0) == 1 and im.get("pX", 0) != 1],
    ),
    "transitive_chain": LitmusTest(
        name="transitive_chain",
        build=_transitive_chain,
        forbidden=[
            lambda im: im.get("pC", 0) == 1 and im.get("pA", 0) != 1,
            lambda im: im.get("pC", 0) == 1 and im.get("pB", 0) != 1,
            lambda im: im.get("pB", 0) == 1 and im.get("pA", 0) != 1,
        ],
    ),
    "dfence_durability": LitmusTest(
        name="dfence_durability",
        build=_dfence_durability,
        # The dFence (eid 2) completed: pA and pB are mandatory.
        completed_dfences=[2],
        forbidden=[lambda im: im.get("pA", 0) != 1 or im.get("pB", 0) != 2],
    ),
    "intra_thread_chain": LitmusTest(
        name="intra_thread_chain",
        build=_intra_thread_chain,
        forbidden=[
            lambda im: im.get("pC", 0) == 3 and im.get("pB", 0) != 2,
            lambda im: im.get("pB", 0) == 2 and im.get("pA", 0) != 1,
        ],
    ),
    "same_location_overwrite": LitmusTest(
        name="same_location_overwrite",
        build=_same_location_overwrite,
        # pX=2 durable requires pX=1 to have been durable first, so the
        # visible survivor can be 2 only via the ordered overwrite; an
        # image holding 1 must also be reachable (crash between).
        required=[{"pX": 0}, {"pX": 1}, {"pX": 2}],
    ),
}
