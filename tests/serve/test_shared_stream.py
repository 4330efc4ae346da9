"""One derived stream per params: apps share it, nothing can write to it.

:func:`repro.serve.workload.plan_workload` memoises the plan of a
:class:`WorkloadSpec`, and :func:`repro.serve.app.derive_stream` the
per-batch lane arrays and the initial table image of a
:class:`ServeKVSParams`; every :class:`ServeKVS` with equal params reads
the same objects.  :func:`repro.serve.app.stream_ops` holds each batch's
recorded warp ops per stream and machine geometry: the first launch of
a batch records them, every later one replays them.
"""

import dataclasses

import numpy as np
import pytest

from repro.apps import build_app
from repro.common.config import ModelName, small_system
from repro.crash import CrashHarness
import repro.serve.app as serve_app
from repro.gpu.ops import Ld
from repro.gpu.warp import WarpCtx
from repro.serve.app import ServeKVS, derive_stream, encode_value, stream_ops
from repro.serve.workload import OP_INSERT, plan_workload
from repro.system import GPUSystem

SMALL = dict(n_requests=96, n_keys=96, capacity=256, batch_requests=24)
MODELS = [ModelName.GPM, ModelName.EPOCH, ModelName.SBRP]


def shared(app):
    return app.plan, app.stream.lanes, app.stream.image


class TestSharing:
    def test_equal_params_share_every_object(self):
        a = build_app("serve_kvs", **SMALL)
        b = build_app("serve_kvs", **SMALL)
        for mine, theirs in zip(shared(a), shared(b)):
            assert mine is theirs

    @pytest.mark.parametrize(
        "change", [{"seed": 8}, {"policy": "forced_pb"}, {"threshold_words": 4}]
    )
    def test_different_params_derive_their_own(self, change):
        a = build_app("serve_kvs", **SMALL)
        b = build_app("serve_kvs", **SMALL, **change)
        assert a.stream is not b.stream
        for mine, theirs in zip(shared(a)[1:], shared(b)[1:]):
            assert mine is not theirs
        # The plan is a function of the workload spec alone.
        assert (a.plan is b.plan) == ("seed" not in change)

    def test_every_app_asks_the_plan_layer(self, monkeypatch):
        """Each construction calls ``plan_workload`` once, answered from
        its memo, so a wrapper on the plan layer sees every app built."""
        build_app("serve_kvs", **SMALL)
        calls = []
        plan_workload = serve_app.plan_workload

        def counting(spec):
            calls.append(spec)
            return plan_workload(spec)

        monkeypatch.setattr(serve_app, "plan_workload", counting)
        first = build_app("serve_kvs", **SMALL)
        second = build_app("serve_kvs", **SMALL)
        assert calls == [first.params.workload()] * 2
        assert first.plan is second.plan

    def test_cached_plan_matches_a_fresh_plan(self):
        app = build_app("serve_kvs", **SMALL, mix="insert_heavy")
        fresh = plan_workload.__wrapped__(app.params.workload())
        assert fresh is not app.plan
        assert app.plan.digest() == fresh.digest()
        assert app.plan == fresh
        assert app.plan.insert_keys == tuple(
            sorted({r.key for r in fresh.requests if r.op == OP_INSERT})
        )
        assert app.plan.insert_keys  # the mix does insert

    @pytest.mark.parametrize("memo", [plan_workload, derive_stream, stream_ops])
    def test_cache_stays_within_its_bound(self, memo):
        bound = memo.cache_parameters()["maxsize"]
        for seed in range(bound + 4):
            app = build_app(
                "serve_kvs", **dict(SMALL, n_requests=8, seed=1000 + seed)
            )
            app.setup(GPUSystem(small_system(ModelName.SBRP)))
            assert memo.cache_info().currsize <= bound
        assert memo.cache_info().currsize == bound


def test_image_matches_the_per_key_reference():
    app = build_app("serve_kvs", **SMALL)
    p, spec = app.params, app.params.workload()
    keys = np.zeros(p.capacity, dtype=np.int64)
    vals = np.zeros(p.capacity, dtype=np.int64)
    pay = np.zeros(p.capacity * p.payload_large, dtype=np.int64)
    for key in range(p.n_keys):
        keys[key] = key + 1
        vals[key] = encode_value(key, 0)
        base, plen = key * p.payload_large, spec.payload_words(key)
        pay[base : base + plen] = vals[key] + 1 + np.arange(plen)
    image = app.stream.image
    assert list(image) == ["tbl_key", "tbl_val", "pay"]
    for got, want in zip(image.values(), (keys, vals, pay)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


class TestReadOnly:
    def test_arrays_refuse_writes(self):
        app = build_app("serve_kvs", **SMALL)
        arrays = list(app.stream.image.values())
        for lanes in app.stream.lanes:
            arrays += [v for v in lanes.values() if isinstance(v, np.ndarray)]
        assert len(arrays) == 3 + 9 * len(app.stream.lanes)
        for array in arrays:
            with pytest.raises(ValueError):
                array[0] = 1

    def test_mappings_refuse_writes(self):
        app = build_app("serve_kvs", **SMALL)
        key = next(iter(app.plan.final_versions))
        with pytest.raises(TypeError):
            app.plan.final_versions[key] = 0
        with pytest.raises(TypeError):
            app.stream.lanes[0]["key"] = np.zeros(1)
        with pytest.raises(TypeError):
            app.stream.image["pay"] = np.zeros(1)
        assert isinstance(app.stream.lanes, tuple)
        with pytest.raises(dataclasses.FrozenInstanceError):
            app.plan.insert_keys = ()


def served(model, **params):
    """A fresh app's stream on a fresh machine: (counters, cycles)."""
    system = GPUSystem(small_system(model))
    app = build_app("serve_kvs", **SMALL, **params)
    app.setup(system)
    cycles = app.run(system).cycles
    system.sync()
    app.check(system, complete=True)
    return system.stats.snapshot(), cycles


@pytest.mark.parametrize("model", MODELS)
def test_a_crash_and_recovery_leave_the_stream_intact(model):
    before = served(model)
    harness = CrashHarness(
        lambda: build_app("serve_kvs", **SMALL), small_system(model)
    )
    report = harness.crash_at_fraction(0.5, complete=True)
    assert report.consistent and report.completed, report.error
    assert served(model) == before


def refuse_live_kernel(self, w, arr):
    raise AssertionError("a recorded batch ran its kernel live")
    yield  # pragma: no cover - makes this a generator


class TestOpRecords:
    @pytest.mark.parametrize("seeded_bug", ["", "early_commit"])
    @pytest.mark.parametrize("policy", ["adaptive", "forced_pb", "forced_direct"])
    @pytest.mark.parametrize("model", MODELS)
    def test_replay_equals_the_recording_run(
        self, model, policy, seeded_bug, monkeypatch
    ):
        """Served again on a fresh machine, a recorded stream replays
        every batch and counts the same events and cycles."""
        stream_ops.cache_clear()
        params = dict(policy=policy, seeded_bug=seeded_bug)
        recording = served(model, **params)
        monkeypatch.setattr(ServeKVS, "_serve_kernel", refuse_live_kernel)
        assert served(model, **params) == recording

    def test_equal_keys_share_one_record(self):
        stream_ops.cache_clear()
        config = small_system(ModelName.SBRP)
        first, second = (build_app("serve_kvs", **SMALL) for _ in range(2))
        first.setup(GPUSystem(config))
        system = GPUSystem(config)
        second.setup(system)
        assert first.records is second.records
        assert set(first.records) == {None}
        second.run(system)
        assert None not in first.records
        record = first.records[0]
        with pytest.raises(TypeError):
            record[0, 0] = ()
        # A different block size splits the lanes into other warps.
        wide = build_app("serve_kvs", **SMALL)
        wide.setup(GPUSystem(small_system(ModelName.SBRP, threads_per_block=64)))
        assert wide.records is not first.records
        assert set(wide.records) == {None}

    def test_a_raising_launch_publishes_nothing(self, monkeypatch):
        """A launch that raises at the end of each block's last warp
        publishes nothing, whatever its other warps recorded; the next
        launch records in full."""
        stream_ops.cache_clear()
        live = ServeKVS._serve_kernel

        def failing(self, w, arr):
            yield from live(self, w, arr)
            if w.warp_in_block == w.warps_per_block - 1:
                raise RuntimeError("warp died")

        monkeypatch.setattr(ServeKVS, "_serve_kernel", failing)
        system = GPUSystem(small_system(ModelName.SBRP))
        app = build_app("serve_kvs", **SMALL)
        app.setup(system)
        with pytest.raises(RuntimeError, match="warp died"):
            app.serve_batch(system, 0)
        assert set(app.records) == {None}
        monkeypatch.setattr(ServeKVS, "_serve_kernel", live)
        before = served(ModelName.SBRP)
        assert None not in app.records
        assert served(ModelName.SBRP) == before

    def test_serve_kernel_never_reads_its_loads(self):
        """Driven with a sentinel for every load, the serve kernel still
        completes and yields the recorded ops: what replay relies on."""
        stream_ops.cache_clear()
        served(ModelName.SBRP)
        system = GPUSystem(small_system(ModelName.SBRP))
        app = build_app("serve_kvs", **SMALL)
        app.setup(system)
        gpu = system.config.gpu
        sentinel = object()
        loads = 0
        for index, arr in enumerate(app.stream.lanes):
            grid = app._grid(system, arr["n"])
            for block in range(grid):
                for warp in range(gpu.warps_per_block):
                    w = WarpCtx(
                        block, warp, gpu.warp_size, gpu.threads_per_block, grid
                    )
                    kernel = app._serve_kernel(w, arr)
                    ops, sent = [], None
                    with pytest.raises(StopIteration):
                        while True:
                            op = kernel.send(sent)
                            ops.append(serve_app._entry(op))
                            sent = sentinel if type(op) is Ld else None
                            loads += type(op) is Ld
                    assert tuple(ops) == app.records[index][block, warp]
        assert loads  # the mix does read
