"""Additional litmus scenarios built inline (beyond the library)."""

from repro.check.oracle import allowed_unconstrained
from repro.common.config import Scope
from repro.formal import (
    ExecutionWitness,
    LitmusProgram,
    build_pmo,
)


def images_of(program):
    """Every allowed crash image over all witnesses, as dicts."""
    return [dict(image) for image in allowed_unconstrained(program)]


class TestPMResidentReleaseVariable:
    def test_pm_flag_is_ordered_after_preceding_persists(self):
        """Box 2's note: the release variable can be PM-resident; it is
        then itself a persist, ordered after the persists before the
        release."""
        prog = LitmusProgram()
        prog.thread(block=0).w("pData", 1).prel("pFlag", 1, Scope.DEVICE)
        pmo = build_pmo(ExecutionWitness(prog))
        data = prog.threads[0].events[0]
        rel = prog.threads[0].events[1]
        assert pmo.has_edge(data.eid, rel.eid)
        for image in images_of(prog):
            if image.get("pFlag") == 1:
                assert image.get("pData") == 1


class TestTwoProducersOneConsumer:
    def test_consumer_ordered_after_observed_producer_only(self):
        prog = LitmusProgram()
        prog.thread(block=0).w("pA", 1).prel("f", 1, Scope.DEVICE)
        prog.thread(block=1).w("pB", 1).prel("f", 2, Scope.DEVICE)
        prog.thread(block=2).pacq("f", Scope.DEVICE).w("pC", 1)
        # pC durable requires at least one producer's data durable
        # (whichever release the acquire observed).
        for image in images_of(prog):
            if image.get("pC") == 1:
                assert image.get("pA") == 1 or image.get("pB") == 1


class TestFenceDoesNotOrderOtherThreads:
    def test_ofence_is_strictly_intra_thread(self):
        prog = LitmusProgram()
        prog.thread(block=0).w("pA", 1).ofence().w("pB", 1)
        prog.thread(block=0).w("pC", 1)
        pmo = build_pmo(ExecutionWitness(prog))
        c = prog.threads[1].events[0]
        # pC has no pmo relation to anything.
        assert pmo.ancestors(c.eid) == frozenset()
        assert not any(pmo.has_edge(c.eid, n) for n in pmo.nodes)
        # So pC-alone is an allowed image.
        keys = {tuple(sorted(im.items())) for im in images_of(prog)}
        assert (("pC", 1),) in keys


class TestAcquireWithoutRelease:
    def test_spinning_thread_never_persists(self):
        """If no release ever matches, the acquiring thread blocks
        forever: its persists appear in no image."""
        prog = LitmusProgram()
        prog.thread(block=0).pacq("f", Scope.DEVICE).w("pY", 1)
        for image in images_of(prog):
            assert image.get("pY", 0) == 0
