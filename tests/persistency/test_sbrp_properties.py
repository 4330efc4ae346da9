"""Seeded property tests for the SBRP hardware structures.

The persist buffer is exercised against a plain-list reference model
under interleaved insert / coalesce-removal / drain sequences, and the
per-SM masks (ODM / EDM / FSM) against python sets — every divergence
between the hardware structure and its obviously-correct model is a
bug in the structure.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.persistency.sbrp.pbuffer import EntryKind, PersistBuffer
from repro.persistency.sbrp.state import SBRPState

MAX_WARPS = 16


# ----------------------------------------------------------------------
# PersistBuffer vs reference list
# ----------------------------------------------------------------------
def _reference_order_entry_before(live, seq):
    return any(e.seq < seq and e.kind.is_order for e in live)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_pbuffer_matches_reference_under_interleaving(data):
    """Interleave append / pop_head (drain) / remove (retire-in-place) /
    tombstone (eviction bypass) and check every observer after each op."""
    pb = PersistBuffer(capacity=32)
    live = []  # reference: entries in insertion order
    n_ops = data.draw(st.integers(1, 40))
    for _ in range(n_ops):
        op = data.draw(
            st.sampled_from(["append", "pop_head", "remove", "tombstone"])
        )
        if op == "append":
            kind = data.draw(st.sampled_from(list(EntryKind)))
            entry = pb.append(kind, data.draw(st.integers(1, 0xFFFF)))
            live.append(entry)
        elif op == "pop_head" and live:
            popped = pb.pop_head()
            assert popped is live.pop(0)
        elif op == "remove" and live:
            victim = live.pop(data.draw(st.integers(0, len(live) - 1)))
            pb.remove(victim)
        elif op == "tombstone":
            persists = [e for e in live if e.kind is EntryKind.PERSIST]
            if persists:
                victim = data.draw(st.sampled_from(persists))
                live.remove(victim)
                pb.tombstone(victim)

        assert pb.entries() == live
        assert pb.live_count() == len(live) == len(pb)
        assert pb.has_order_entries() == any(e.kind.is_order for e in live)
        assert pb.tail() is (live[-1] if live else None)
        assert pb.peak_occupancy >= pb.live_count()
        probe = data.draw(st.integers(0, 64))
        assert pb.order_entry_before(probe) == _reference_order_entry_before(
            live, probe
        )
        # Eviction legality asks at a live entry's own seq, and at the
        # seq the next append will take.
        for seq in [e.seq for e in live] + [pb.last_seq + 1]:
            assert pb.order_entry_before(seq) == _reference_order_entry_before(
                live, seq
            )
        assert all(pb.get(e.seq) is e for e in live)

    # head() discards leading tombstones and agrees with the reference.
    assert pb.head() is (live[0] if live else None)
    # Sequence numbers stay strictly increasing in FIFO order.
    seqs = [e.seq for e in pb.entries()]
    assert seqs == sorted(set(seqs))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sampled_from(list(EntryKind)), min_size=1, max_size=20),
    st.integers(0, 19),
)
def test_pbuffer_coalesce_legality_tracks_order_points(kinds, slot_entry):
    """A store may only coalesce into entries younger than its warp's
    last ordering point: ``coalesce_blocked`` must match that rule."""
    st_state = SBRPState(sm_id=0, pb_entries=64, max_warps=MAX_WARPS)
    entries = [st_state.pb.append(kind, 1) for kind in kinds]
    anchor = entries[slot_entry % len(entries)]
    st_state.note_order_point(3, anchor)
    for entry in entries:
        assert st_state.coalesce_blocked(3, entry) == (anchor.seq > entry.seq)
    # Other slots never saw an ordering point and are never blocked.
    assert not any(st_state.coalesce_blocked(0, e) for e in entries)


# ----------------------------------------------------------------------
# ODM / EDM / FSM vs python sets
# ----------------------------------------------------------------------
mask_ops = st.lists(
    st.tuples(
        st.sampled_from(["set", "clear", "or", "diff", "reset"]),
        st.sampled_from(["odm", "edm", "fsm"]),
        st.sets(st.integers(0, MAX_WARPS - 1), max_size=6),
    ),
    max_size=30,
)


def _bits(warps):
    return sum(1 << warp for warp in warps)


@settings(max_examples=80, deadline=None)
@given(mask_ops)
def test_sm_masks_match_set_model(ops):
    """The masks are plain ints stepped with the model's own operations:
    set and clear a slot's ``warp_bit``, OR in or clear out a Warp BM."""
    state = SBRPState(sm_id=0, pb_entries=8, max_warps=MAX_WARPS)
    model = {"odm": set(), "edm": set(), "fsm": set()}
    for op, which, warps in ops:
        mask, ref = getattr(state, which), model[which]
        if op == "set":
            for warp in warps:
                mask |= state.warp_bit(warp)
            ref |= warps
        elif op == "clear":
            for warp in warps:
                mask &= ~state.warp_bit(warp)
            ref -= warps
        elif op == "or":
            mask |= _bits(warps)
            ref |= warps
        elif op == "diff":
            mask &= ~_bits(warps)
            ref -= warps
        else:
            mask = 0
            ref.clear()
        setattr(state, which, mask)
        for name in model:
            assert getattr(state, name) == _bits(model[name]), name


@pytest.mark.parametrize("slot", [-1, MAX_WARPS, MAX_WARPS + 5])
def test_out_of_range_slot_raises(slot):
    state = SBRPState(sm_id=0, pb_entries=8, max_warps=MAX_WARPS)
    with pytest.raises(IndexError):
        state.warp_bit(slot)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_actr_tracks_inflight_acks(data):
    """The ACTR equals the number of in-flight acks through any
    interleaving of flush / ack / hard-reset."""
    state = SBRPState(sm_id=0, pb_entries=8, max_warps=MAX_WARPS)
    next_time = 1.0
    for _ in range(data.draw(st.integers(1, 30))):
        op = data.draw(st.sampled_from(["flush", "ack", "hard_reset"]))
        if op == "flush":
            state.add_inflight(next_time)
            state.fsm |= state.warp_bit(data.draw(st.integers(0, MAX_WARPS - 1)))
            next_time += 1.0
        elif op == "ack" and state.inflight_acks:
            state.retire_ack(data.draw(st.sampled_from(state.inflight_acks)))
        elif op == "hard_reset":
            generation = state.generation
            state.hard_reset_acks()
            assert state.generation == generation + 1
            assert state.fsm == 0
        assert state.actr == len(state.inflight_acks)
        assert state.actr >= 0
