"""Property-based tests (hypothesis) on core structures and invariants."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import GPUSystem, ModelName, Scope, small_system
from repro.formal import (
    ExecutionWitness,
    LitmusProgram,
    allowed_crash_images,
    build_pmo,
)
from repro.formal.crash_states import order_ideals
from repro.formal.events import all_reads_from
from repro.formal.relations import transitive_closure
from repro.memory.devices import BandwidthChannel, NVMController
from repro.persistency.sbrp.pbuffer import EntryKind, PersistBuffer
from repro.persistency.sbrp.state import SBRPState

# ----------------------------------------------------------------------
# Warp masks: plain ints with bit i for warp slot i (SBRPState.warp_bit)
# ----------------------------------------------------------------------
warp_sets = st.sets(st.integers(0, 31), max_size=8)


def _mask(state, warps):
    mask = 0
    for warp in warps:
        mask |= state.warp_bit(warp)
    return mask


def _warps(mask):
    return {slot for slot in range(mask.bit_length()) if mask >> slot & 1}


@given(warp_sets, warp_sets)
def test_warpmask_or_is_union(a, b):
    state = SBRPState(sm_id=0, pb_entries=4, max_warps=32)
    pb = PersistBuffer(capacity=4)
    entry = pb.append(EntryKind.PERSIST, _mask(state, a), 0x40)
    pb.merge(entry, _mask(state, b))
    assert _warps(entry.warp_mask) == a | b


@given(warp_sets, warp_sets)
def test_warpmask_and_nonzero_iff_intersection(a, b):
    state = SBRPState(sm_id=0, pb_entries=4, max_warps=32)
    assert bool(_mask(state, a) & _mask(state, b)) == bool(a & b)


@given(warp_sets, warp_sets)
def test_warpmask_clear_mask_is_difference(a, b):
    state = SBRPState(sm_id=0, pb_entries=4, max_warps=32)
    state.odm = _mask(state, a)
    state.odm &= ~_mask(state, b)
    assert _warps(state.odm) == a - b


# ----------------------------------------------------------------------
# Bandwidth channel / WPQ
# ----------------------------------------------------------------------
@given(
    st.lists(
        st.tuples(st.floats(0, 1e5), st.integers(1, 4096)), min_size=1, max_size=30
    )
)
def test_channel_completions_after_arrival(reqs):
    chan = BandwidthChannel("c", latency=17, bytes_per_cycle=3.5)
    now = 0.0
    for arrival, nbytes in reqs:
        now = max(now, arrival)
        done = chan.transfer(now, nbytes)
        assert done >= now + nbytes / 3.5


@given(st.lists(st.integers(64, 1024), min_size=1, max_size=40))
def test_wpq_accepts_monotonically(sizes):
    nvm = NVMController("n", 10, 5, latency=20, wpq_entries=4)
    accepts = [nvm.write(0, size) for size in sizes]
    assert accepts == sorted(accepts)
    # Acceptance is never earlier than arrival.
    assert all(a >= 0 for a in accepts)


# ----------------------------------------------------------------------
# Persist buffer
# ----------------------------------------------------------------------
@given(
    st.lists(
        st.tuples(st.sampled_from(list(EntryKind)), st.integers(1, 0xFF)),
        max_size=30,
    )
)
def test_pbuffer_live_count_matches_entries(ops):
    pb = PersistBuffer(capacity=64)
    for kind, mask in ops:
        pb.append(kind, mask)
    assert pb.live_count() == len(pb.entries())
    # Removing everything empties the buffer.
    for entry in pb.entries():
        pb.remove(entry)
    assert pb.live_count() == 0
    assert pb.head() is None


@given(st.data())
def test_pbuffer_entries_keep_fifo_order(data):
    pb = PersistBuffer(capacity=64)
    n = data.draw(st.integers(1, 20))
    for _ in range(n):
        pb.append(EntryKind.PERSIST, 1)
    removed = data.draw(
        st.sets(st.integers(0, n - 1), max_size=n)
    )
    entries = pb.entries()
    for index in removed:
        pb.remove(entries[index])
    seqs = [e.seq for e in pb.entries()]
    assert seqs == sorted(seqs)


# ----------------------------------------------------------------------
# Formal model
# ----------------------------------------------------------------------
def _members(mask):
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


@st.composite
def small_dags(draw, max_nodes=6):
    """A random DAG over 0..n-1 (edges only from lower to higher ids),
    closed, plus the mask of all its nodes."""
    n = draw(st.integers(1, max_nodes))
    preds = {j: 0 for j in range(n)}
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                preds[j] |= 1 << i
    return transitive_closure(range(n), preds, {}, "cycle"), (1 << n) - 1


@given(small_dags())
def test_downward_closed_subsets_are_closed(case):
    dag, nodes = case
    for subset in map(_members, order_ideals(dag, nodes)):
        for node in subset:
            assert dag.ancestors(node) <= subset


@given(small_dags())
def test_downward_closed_contains_empty_and_full(case):
    dag, nodes = case
    subsets = order_ideals(dag, nodes)
    assert 0 in subsets
    assert nodes in subsets


def _brute_ideals(dag, within):
    """Test oracle: filter every subset of *within* for closure under
    the ancestors that lie inside *within*."""
    return {
        subset
        for subset in range(within + 1)
        if subset & ~within == 0
        and all(dag.anc[n] & within & ~subset == 0 for n in _members(subset))
    }


@given(small_dags(max_nodes=8))
def test_order_ideals_are_complete_and_distinct(case):
    """The enumerator yields exactly the downward-closed subsets, each
    once: compared against a brute-force filter of all 2^n subsets."""
    dag, nodes = case
    ideals = order_ideals(dag, nodes)
    assert len(ideals) == len(set(ideals))
    assert set(ideals) == _brute_ideals(dag, nodes)


@given(small_dags(max_nodes=8), st.data())
def test_order_ideals_respect_within_and_base(case, data):
    """Restricted to a node subset and seeded with an ideal, the
    enumerator yields exactly the ideals of the restriction that
    contain the seed."""
    dag, nodes = case
    within = data.draw(st.integers(0, nodes))
    brute = _brute_ideals(dag, within)
    base = data.draw(st.sampled_from(sorted(brute)))
    ideals = order_ideals(dag, within, base)
    assert len(ideals) == len(set(ideals))
    assert set(ideals) == {ideal for ideal in brute if ideal & base == base}


@st.composite
def random_litmus(draw):
    """Small random programs: 2 threads, writes/fences/release-acquire."""
    prog = LitmusProgram("random")
    locs = ["pA", "pB", "pC"]
    for tid in range(2):
        thread = prog.thread(block=draw(st.integers(0, 1)))
        for _ in range(draw(st.integers(1, 4))):
            choice = draw(st.integers(0, 3))
            if choice == 0:
                thread.w(draw(st.sampled_from(locs)), draw(st.integers(1, 3)))
            elif choice == 1:
                thread.ofence()
            elif choice == 2:
                thread.prel(
                    "f", 1, draw(st.sampled_from([Scope.BLOCK, Scope.DEVICE]))
                )
            else:
                thread.pacq(
                    "f", draw(st.sampled_from([Scope.BLOCK, Scope.DEVICE]))
                )
    return prog


@given(random_litmus())
@settings(max_examples=30, deadline=None)
def test_crash_images_are_pmo_consistent(program):
    """Every allowed image respects pmo: a durable write's pmo
    predecessors appear durable too (checked per location presence)."""
    from collections import Counter

    from repro.common.errors import LitmusError

    for reads_from in all_reads_from(program):
        witness = ExecutionWitness(program, reads_from)
        try:
            pmo = build_pmo(witness)
        except LitmusError:
            continue  # infeasible witness
        events = pmo.events
        writers = Counter(
            (events[eid].loc, events[eid].value) for eid in pmo.nodes
        )
        for image in allowed_crash_images(witness):
            for eid in pmo.nodes:
                event = events[eid]
                if image.get(event.loc, 0) != event.value:
                    continue
                if writers[(event.loc, event.value)] > 1:
                    # Value aliasing: another event wrote the same
                    # value to this location, so the image does not
                    # identify which of them persisted — the
                    # ancestor obligation cannot be pinned on this
                    # event.
                    continue
                for pred in pmo.ancestors(eid):
                    ploc = events[pred].loc
                    # The predecessor's location must hold *some*
                    # durable (non-initial) value.
                    assert image.get(ploc, 0) != 0


# ----------------------------------------------------------------------
# End-to-end: random fenced programs produce pmo-consistent logs
# ----------------------------------------------------------------------
@given(
    st.lists(st.integers(1, 100), min_size=2, max_size=6),
    st.sampled_from([ModelName.SBRP, ModelName.EPOCH]),
)
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_fenced_chain_prefix_property(values, model):
    """A fully fenced write chain may crash only to a prefix."""
    system = GPUSystem(small_system(model, num_sms=1, threads_per_block=32))
    pm = system.pm_create("chain", 128 * len(values))
    addrs = [pm.base + 128 * i for i in range(len(values))]

    def kernel(w, addrs, values):
        for addr, value in zip(addrs, values):
            yield w.st(addr, value, mask=w.lane == 0)
            yield w.ofence()

    system.launch(kernel, 1, args=(addrs, values))
    system.sync()
    log = system.gpu.subsystem.persist_log
    times = sorted({r.accept_time for r in log.records()}) + [system.now]
    for t in times:
        image = system.gpu.subsystem.crash_image(t)
        present = [image.get(a, 0) == v for a, v in zip(addrs, values)]
        # Durable set must be a prefix of the chain.
        if False in present:
            first_missing = present.index(False)
            assert not any(present[first_missing:]), present
