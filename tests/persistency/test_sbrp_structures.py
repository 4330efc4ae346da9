"""SBRP hardware structures: persist buffer and per-SM state."""

import pytest

from repro.common.config import Scope
from repro.persistency.sbrp.pbuffer import EntryKind, PersistBuffer
from repro.persistency.sbrp.state import SBRPState


class TestPersistBuffer:
    def test_fifo_order(self):
        pb = PersistBuffer(8)
        a = pb.append(EntryKind.PERSIST, 0b1, line_addr=0)
        b = pb.append(EntryKind.OFENCE, 0b1)
        assert pb.head() is a
        pb.remove(a)
        assert pb.head() is b

    def test_live_count_excludes_tombstones(self):
        pb = PersistBuffer(8)
        a = pb.append(EntryKind.PERSIST, 0b1)
        pb.append(EntryKind.PERSIST, 0b10)
        pb.tombstone(a)
        assert pb.live_count() == 1
        assert len(pb.entries()) == 1

    def test_capacity_accounting(self):
        pb = PersistBuffer(2)
        pb.append(EntryKind.PERSIST, 1)
        pb.append(EntryKind.OFENCE, 1)
        assert pb.is_full()
        pb.remove(pb.head())
        assert not pb.is_full()

    def test_order_entry_tracking(self):
        pb = PersistBuffer(8)
        assert not pb.has_order_entries()
        fence = pb.append(EntryKind.OFENCE, 1)
        assert pb.has_order_entries()
        pb.remove(fence)
        assert not pb.has_order_entries()

    def test_order_entry_before(self):
        pb = PersistBuffer(8)
        pb.append(EntryKind.PERSIST, 1)
        fence = pb.append(EntryKind.OFENCE, 1)
        late = pb.append(EntryKind.PERSIST, 1)
        assert pb.order_entry_before(late.seq)
        pb.remove(fence)
        assert not pb.order_entry_before(late.seq)

    def test_tail_skips_tombstones(self):
        pb = PersistBuffer(8)
        pb.append(EntryKind.OFENCE, 1)
        last = pb.append(EntryKind.PERSIST, 1)
        pb.tombstone(last)
        assert pb.tail().kind is EntryKind.OFENCE

    def test_double_remove_rejected(self):
        pb = PersistBuffer(8)
        entry = pb.append(EntryKind.PERSIST, 1)
        pb.remove(entry)
        with pytest.raises(ValueError):
            pb.remove(entry)

    def test_tombstone_requires_persist(self):
        pb = PersistBuffer(8)
        fence = pb.append(EntryKind.OFENCE, 1)
        with pytest.raises(ValueError):
            pb.tombstone(fence)

    def test_peak_occupancy_tracked(self):
        pb = PersistBuffer(8)
        for _ in range(5):
            pb.append(EntryKind.PERSIST, 1)
        assert pb.peak_occupancy == 5


class TestSBRPState:
    def make(self) -> SBRPState:
        return SBRPState(sm_id=0, pb_entries=16, max_warps=8)

    def test_warp_bit_bounds(self):
        st = self.make()
        assert st.warp_bit(3) == 8
        with pytest.raises(IndexError):
            st.warp_bit(8)

    def test_coalesce_blocked_by_later_order_point(self):
        st = self.make()
        persist = st.pb.append(EntryKind.PERSIST, st.warp_bit(0))
        assert not st.coalesce_blocked(0, persist)
        fence = st.pb.append(EntryKind.OFENCE, st.warp_bit(0))
        st.note_order_point(0, fence)
        assert st.coalesce_blocked(0, persist)
        # A different warp's stores may still coalesce.
        assert not st.coalesce_blocked(1, persist)

    def test_ack_bookkeeping(self):
        st = self.make()
        st.add_inflight(100.0)
        st.add_inflight(200.0)
        assert st.actr == 2
        st.retire_ack(100.0)
        assert st.actr == 1
        assert st.inflight_acks == [200.0]

    def test_actr_never_negative(self):
        st = self.make()
        with pytest.raises(AssertionError):
            st.retire_ack(1.0)

    def test_hard_reset_bumps_generation(self):
        st = self.make()
        st.add_inflight(5.0)
        st.fsm |= st.warp_bit(2)
        generation = st.generation
        st.hard_reset_acks()
        assert st.generation == generation + 1
        assert st.actr == 0 and st.fsm == 0
