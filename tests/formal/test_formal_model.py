"""The axiomatic model: relations and crash images."""

import os
import subprocess
import sys

import pytest

import repro
from repro.common.config import Scope
from repro.common.errors import LitmusError
from repro.formal import (
    ExecutionWitness,
    LitmusProgram,
    allowed_crash_images,
    build_pmo,
    build_po,
    build_vmo,
)
from repro.formal.crash_states import order_ideals
from repro.formal.relations import transitive_closure


def edge_count(relation):
    return sum(len(relation.ancestors(n)) for n in relation.nodes)


def mp_program():
    prog = LitmusProgram()
    t0 = prog.thread(block=0)
    t0.w("pData", 1).ofence().w("pFlag", 1)
    return prog


class TestRelations:
    def test_po_is_per_thread_chain(self):
        prog = mp_program()
        po = build_po(prog)
        eids = [e.eid for e in prog.threads[0].events]
        assert list(po.nodes) == eids
        for i, a in enumerate(eids):
            assert po.ancestors(a) == frozenset(eids[:i])

    def test_ofence_creates_pmo_edge(self):
        prog = mp_program()
        pmo = build_pmo(ExecutionWitness(prog))
        w_data, _, w_flag = prog.threads[0].events
        assert pmo.has_edge(w_data.eid, w_flag.eid)

    def test_no_fence_no_pmo(self):
        prog = LitmusProgram()
        prog.thread().w("pA", 1).w("pB", 1)
        pmo = build_pmo(ExecutionWitness(prog))
        assert edge_count(pmo) == 0

    def test_release_acquire_pmo_requires_scope_coverage(self):
        def build(scope, blocks):
            prog = LitmusProgram()
            prog.thread(block=blocks[0]).w("pX", 1).prel("f", 1, scope)
            prog.thread(block=blocks[1]).pacq("f", scope).w("pY", 1)
            rel = prog.releases()[0]
            acq = prog.acquires()[0]
            return prog, {acq.eid: rel.eid}

        prog, rf = build(Scope.BLOCK, (0, 0))
        pmo = build_pmo(ExecutionWitness(prog, rf))
        assert edge_count(pmo) == 1

        prog, rf = build(Scope.BLOCK, (0, 1))  # the Section 5.3 bug
        pmo = build_pmo(ExecutionWitness(prog, rf))
        assert edge_count(pmo) == 0

        prog, rf = build(Scope.DEVICE, (0, 1))
        pmo = build_pmo(ExecutionWitness(prog, rf))
        assert edge_count(pmo) == 1

    def test_pmo_transitivity(self):
        prog = LitmusProgram()
        prog.thread().w("pA", 1).ofence().w("pB", 1).ofence().w("pC", 1)
        pmo = build_pmo(ExecutionWitness(prog))
        a, _, b, _, c = prog.threads[0].events
        assert pmo.has_edge(a.eid, c.eid)

    def test_vmo_contains_release_acquire_edge(self):
        prog = LitmusProgram()
        prog.thread(block=0).prel("f", 1, Scope.BLOCK)
        prog.thread(block=0).pacq("f", Scope.BLOCK)
        rel, acq = prog.releases()[0], prog.acquires()[0]
        vmo = build_vmo(ExecutionWitness(prog, {acq.eid: rel.eid}))
        assert vmo.has_edge(rel.eid, acq.eid)

    def test_cyclic_witness_is_infeasible(self):
        # Each thread's acquire reads the other thread's later release.
        prog = LitmusProgram()
        prog.thread(block=0).pacq("f0").w("pA", 1).prel("f1", 1)
        prog.thread(block=0).pacq("f1").w("pB", 1).prel("f0", 1)
        acq0, acq1 = prog.acquires()
        rel1, rel0 = prog.releases()
        witness = ExecutionWitness(prog, {acq0.eid: rel0.eid, acq1.eid: rel1.eid})
        for build in (build_vmo, build_pmo, allowed_crash_images):
            with pytest.raises(LitmusError, match="^infeasible witness: cyclic vmo$"):
                build(witness)


class TestCrashImages:
    def test_downward_closed_count_for_chain(self):
        dag = transitive_closure([1, 2, 3], {2: 1 << 1, 3: 1 << 2}, {}, "cycle")
        subsets = order_ideals(dag, 0b1110)
        # A 3-chain has exactly 4 order ideals.
        assert len(subsets) == 4

    def test_downward_closed_count_for_antichain(self):
        dag = transitive_closure([1, 2], {}, {}, "cycle")
        assert len(order_ideals(dag, 0b110)) == 4

    def test_mp_images(self):
        images = allowed_crash_images(ExecutionWitness(mp_program()))
        keys = {tuple(sorted(im.items())) for im in images}
        assert (("pData", 1),) in keys
        assert (("pData", 1), ("pFlag", 1)) in keys
        assert (("pFlag", 1),) not in keys  # flag-without-data forbidden

    def test_unfenced_writes_any_subset(self):
        prog = LitmusProgram()
        prog.thread().w("pA", 1).w("pB", 1)
        images = allowed_crash_images(ExecutionWitness(prog))
        assert len(images) == 4

    def test_completed_dfence_forces_predecessors(self):
        prog = LitmusProgram()
        t = prog.thread()
        t.w("pA", 1).dfence()
        dfence_eid = t.events[1].eid
        images = allowed_crash_images(
            ExecutionWitness(prog), completed_dfences=[dfence_eid]
        )
        assert all(im.get("pA") == 1 for im in images)


def test_formal_and_check_need_no_third_party_package_but_numpy():
    """The formal layer and the conformance checker run on the standard
    library plus numpy, the project's only declared dependency."""
    code = (
        "import sys; before = set(sys.modules); "
        "import repro.check, repro.formal; "
        "new = {m.split('.')[0] for m in set(sys.modules) - before}; "
        "extra = new - set(sys.stdlib_module_names) - {'repro', 'numpy'}; "
        "assert not extra, sorted(extra)"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
