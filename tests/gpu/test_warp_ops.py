"""WarpCtx op construction and SIMT bookkeeping."""

import numpy as np
import pytest

from repro.common.config import Scope
from repro.gpu.ops import Ld, PAcq, PRel, St
from repro.gpu.warp import Warp, WarpCtx, WarpState


def make_ctx(block_id=1, warp_in_block=2, block_size=128):
    return WarpCtx(
        block_id=block_id,
        warp_in_block=warp_in_block,
        warp_size=32,
        block_size=block_size,
        grid_blocks=4,
    )


class TestWarpCtx:
    def test_global_tids(self):
        w = make_ctx()
        assert w.tid[0] == 1 * 128 + 2 * 32
        assert (np.diff(w.tid) == 1).all()

    def test_nthreads_and_warps(self):
        w = make_ctx()
        assert w.nthreads == 4 * 128
        assert w.warps_per_block == 4
        assert not w.is_block_leader
        assert make_ctx(warp_in_block=0).is_block_leader

    def test_scalar_addr_broadcasts(self):
        w = make_ctx()
        op = w.ld(1000)
        assert isinstance(op, Ld)
        assert op.addrs == [1000] * 32
        assert op.mask is None  # every lane active

    def test_vector_store(self):
        w = make_ctx()
        op = w.st(w.tid * 4, w.tid, mask=w.lane < 4)
        assert isinstance(op, St)
        assert op.mask == [True] * 4 + [False] * 28
        assert op.values == w.tid.tolist()

    def test_shape_mismatch_rejected(self):
        w = make_ctx()
        with pytest.raises(ValueError):
            w.ld(np.arange(5))
        with pytest.raises(ValueError):
            w.st(w.tid, np.arange(3))
        with pytest.raises(ValueError):
            w.ld(w.tid, mask=[True, False])

    def test_int_tuple_lanes_are_kept_as_is(self):
        w = make_ctx()
        addrs = tuple(range(4096, 4096 + 4 * 32, 4))
        values = tuple(range(32))
        store = w.st(addrs, values)
        assert store.addrs is addrs and store.values is values
        assert w.ld(addrs).addrs is addrs

    def test_int_tuple_of_wrong_length_rejected(self):
        w = make_ctx()
        with pytest.raises(ValueError):
            w.ld(tuple(range(31)))
        with pytest.raises(ValueError):
            w.st(w.tid, tuple(range(33)))

    def test_non_int_tuples_are_converted_or_rejected(self):
        w = make_ctx()
        numpy_ints = tuple(np.arange(32))
        op = w.ld(numpy_ints)
        assert op.addrs == list(range(32))
        assert all(type(a) is int for a in op.addrs)
        flags = (True, False) * 16
        assert w.st(w.tid, flags).values == [1, 0] * 16
        mixed = (1.5,) + tuple(range(1, 32))
        assert w.st(w.tid, mixed).values == [1] + list(range(1, 32))
        with pytest.raises(ValueError):
            w.ld(("a",) * 32)
        with pytest.raises(ValueError):
            w.ld(tuple(np.arange(31)))

    def test_scoped_ops_carry_scope(self):
        w = make_ctx()
        acq = w.pacq(64, Scope.DEVICE)
        rel = w.prel(64, 5, Scope.BLOCK)
        assert isinstance(acq, PAcq) and acq.scope is Scope.DEVICE
        assert isinstance(rel, PRel) and rel.value == 5

    def test_acquires_carry_their_exit_test(self):
        w = make_ctx()
        plain = w.pacq(64, Scope.DEVICE)
        spin = w.pacq(64, Scope.DEVICE, spin=True)
        at_least = w.pacq(64, Scope.BLOCK, at_least=3)
        assert (plain.spin, plain.at_least) == (False, None)
        assert (spin.spin, spin.at_least) == (True, None)
        assert (at_least.spin, at_least.at_least) == (True, 3)


class TestWarpRecord:
    def test_initial_state(self):
        def gen():
            yield

        warp = Warp(slot=3, ctx=make_ctx(), gen=gen(), block_key=7)
        assert warp.state is WarpState.READY
        assert warp.retry_op is None
        assert "w2" in repr(warp)
