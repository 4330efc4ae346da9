"""Every application completes correctly under every model, and the
registry mirrors Table 2."""

import numpy as np
import pytest

from repro import GPUSystem, small_system
from repro.apps import APPS, build_app
from repro.apps.srad import reference as srad_reference

SIZES = {
    "gpkvs": dict(n_pairs=512, capacity=1024, rounds=2),
    "hashmap": dict(n_inserts=512, capacity=1024, rounds=2),
    "srad": dict(side=24),
    "reduction": dict(blocks=3, per_thread=2),
    "multiqueue": dict(batches=2, blocks=3),
    "scan": dict(blocks=3),
}


class TestRegistry:
    def test_all_six_table2_apps_present(self):
        assert sorted(APPS) == sorted(
            ["gpkvs", "hashmap", "srad", "reduction", "multiqueue", "scan"]
        )

    def test_table2_pmo_classes(self):
        assert build_app("gpkvs").scoped_pmo == "intra-thread"
        assert build_app("hashmap").scoped_pmo == "intra-thread"
        assert build_app("srad").scoped_pmo == "intra-thread"
        assert build_app("reduction").scoped_pmo == "blk/dev-interthread"
        assert build_app("multiqueue").scoped_pmo == "intra/blk-interthread"
        assert build_app("scan").scoped_pmo == "blk-interthread"

    def test_table2_recovery_styles(self):
        logging = {"gpkvs", "hashmap", "multiqueue"}
        for name in APPS:
            style = build_app(name).recovery_style
            assert style == ("logging" if name in logging else "native")

    def test_building_a_lazy_app_leaves_the_registry_alone(self):
        for _ in range(2):  # import, then the resolved-class cache
            assert type(build_app("serve_kvs")).__name__ == "ServeKVS"
        assert sorted(APPS) == sorted(
            ["gpkvs", "hashmap", "srad", "reduction", "multiqueue", "scan"]
        )

    def test_unknown_app_rejected(self):
        with pytest.raises(KeyError):
            build_app("nope")


@pytest.mark.parametrize("name", sorted(APPS))
class TestFunctional:
    def test_completes_and_checks(self, name, model):
        system = GPUSystem(small_system(model))
        app = build_app(name, **SIZES[name])
        app.setup(system)
        outcome = app.run(system)
        assert outcome.cycles > 0
        system.sync()
        app.check(system, complete=True)

    def test_rerun_is_idempotent(self, name, model):
        """Running the workload twice must leave a consistent final
        state (crash recovery relies on re-execution)."""
        system = GPUSystem(small_system(model))
        app = build_app(name, **SIZES[name])
        app.setup(system)
        app.run(system)
        app.run(system)
        system.sync()
        app.check(system, complete=True)


class TestReferences:
    def test_srad_reference_matches_kernel(self, sbrp_system):
        app = build_app("srad", side=16)
        app.setup(sbrp_system)
        app.run(sbrp_system)
        sbrp_system.sync()
        img = app.image_pixels().reshape(16, 16)
        _, ref_out = srad_reference(img)
        got = sbrp_system.read_words(app.out, app.n_pixels)
        assert (got == ref_out).all()

    def test_reduction_expected_sum(self, sbrp_system):
        app = build_app("reduction", blocks=2, per_thread=2)
        app.setup(sbrp_system)
        app.run(sbrp_system)
        sbrp_system.sync()
        assert sbrp_system.read_word(app.out.base) == app.expected()

    def test_scan_matches_numpy_cumsum(self, sbrp_system):
        app = build_app("scan", blocks=2)
        app.setup(sbrp_system)
        app.run(sbrp_system)
        sbrp_system.sync()
        final = sbrp_system.read_words(app.bufs[-1], app.n)
        assert (final == app.expected()).all()

    def test_gpkvs_table_fully_rekeyed(self, sbrp_system):
        app = build_app("gpkvs", n_pairs=256, capacity=512, rounds=2)
        app.setup(sbrp_system)
        app.run(sbrp_system)
        sbrp_system.sync()
        keys = sbrp_system.read_words(app.tbl_key, 256)
        assert (keys == np.arange(256) + 512).all()
