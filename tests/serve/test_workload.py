"""Workload generator: determinism, skew, write combining."""

import pytest

from repro.serve.workload import (
    MIXES,
    OP_INSERT,
    WorkloadSpec,
    plan_workload,
)

SMALL = dict(n_requests=96, n_keys=64, capacity=160, batch_requests=32)


class TestDeterminism:
    def test_same_spec_same_digest(self):
        a = plan_workload(WorkloadSpec(seed=11, **SMALL))
        # Recompute past the memo: determinism, not sharing.
        b = plan_workload.__wrapped__(WorkloadSpec(seed=11, **SMALL))
        assert a is not b and a.digest() == b.digest()

    def test_seed_changes_stream(self):
        a = plan_workload(WorkloadSpec(seed=11, **SMALL))
        b = plan_workload(WorkloadSpec(seed=12, **SMALL))
        assert a.digest() != b.digest()

    def test_every_mix_plans(self):
        for mix in MIXES:
            plan = plan_workload(WorkloadSpec(mix=mix, **SMALL))
            assert len(plan.requests) == SMALL["n_requests"]

    def test_arrivals_are_monotone(self):
        plan = plan_workload(WorkloadSpec(**SMALL))
        arrivals = [r.arrival for r in plan.requests]
        assert arrivals == sorted(arrivals)


class TestSkew:
    def test_zipfian_concentrates_mass_on_hot_keys(self):
        spec = dict(SMALL, n_requests=512)
        zipf = plan_workload(WorkloadSpec(popularity="zipfian", **spec))
        uni = plan_workload(WorkloadSpec(popularity="uniform", **spec))

        def top4_mass(plan):
            counts = {}
            for r in plan.requests:
                if r.op != OP_INSERT:
                    counts[r.key] = counts.get(r.key, 0) + 1
            total = sum(counts.values())
            return sum(sorted(counts.values())[-4:]) / total

        assert top4_mass(zipf) > 2 * top4_mass(uni)
        assert top4_mass(zipf) > 0.3


class TestWriteCombining:
    def test_one_applier_per_key_per_batch(self):
        plan = plan_workload(WorkloadSpec(**SMALL))
        for batch in plan.batches:
            appliers = {}
            for r in batch.requests:
                if r.is_applying_write:
                    assert r.key not in appliers
                    appliers[r.key] = r
                if r.is_write:
                    # the applier carries the batch-max version per key
                    assert r.version <= max(
                        q.version
                        for q in batch.requests
                        if q.is_write and q.key == r.key
                    )
            for key, req in appliers.items():
                versions = [
                    q.version
                    for q in batch.requests
                    if q.is_write and q.key == key
                ]
                assert req.version == max(versions)

    def test_versions_sequence_per_key(self):
        plan = plan_workload(WorkloadSpec(**SMALL))
        seen = {}
        for r in sorted(plan.requests, key=lambda r: r.index):
            if r.is_write:
                assert r.version == seen.get(r.key, 0) + 1
                seen[r.key] = r.version
        assert seen == plan.final_versions

    def test_hot_zipfian_keys_do_get_combined(self):
        plan = plan_workload(WorkloadSpec(**SMALL))
        assert any(r.is_write and not r.applies for r in plan.requests)

    def test_batch_orders_appliers_by_size(self):
        plan = plan_workload(WorkloadSpec(**SMALL))
        for batch in plan.batches:
            ranks = [
                (1, r.payload) if r.is_applying_write else (0, 0)
                for r in batch.requests
            ]
            assert ranks == sorted(ranks)


class TestValidation:
    @pytest.mark.parametrize(
        "bad",
        [
            dict(mix="bogus"),
            dict(popularity="bogus"),
            dict(arrival="bogus"),
            dict(n_keys=0),
            dict(n_keys=999, capacity=160),
            dict(rate_per_kcycle=0.0),
            dict(payload_small=9, payload_large=8),
        ],
    )
    def test_bad_specs_rejected(self, bad):
        spec = dict(SMALL)
        spec.update(bad)
        with pytest.raises(ValueError):
            WorkloadSpec(**spec).validate()
