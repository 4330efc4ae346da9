"""Fault plans: registry, validation, JSON round-trips, job wiring."""

import pytest

from repro.common.config import ModelName, small_system
from repro.common.errors import ConfigError
from repro.exec import MODE_FAULTS, ScenarioJob
from repro.faults import (
    EXPECT_CONSISTENT,
    EXPECT_FAULT_RAISED,
    EXPECT_HUNG,
    EXPECT_INCONSISTENT,
    PLAN_KINDS,
    AckDelayPlan,
    AckLossPlan,
    DrainDropPlan,
    FaultPlan,
    NVMTransientPlan,
    PowerCutPlan,
    TornPersistPlan,
)
from repro.faults.plans import linear_backoff


class TestRegistry:
    def test_every_plan_kind_is_registered(self):
        assert set(PLAN_KINDS) == {
            "power_cut",
            "torn_persist",
            "drain_drop",
            "ack_delay",
            "ack_loss",
            "nvm_transient",
            "timeline",
        }

    @pytest.mark.parametrize("kind", sorted(PLAN_KINDS))
    def test_round_trip(self, kind):
        plan = PLAN_KINDS[kind]()
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_round_trip_preserves_overrides(self):
        plan = TornPersistPlan(span_cycles=50.0, seed=3)
        again = FaultPlan.from_json(plan.to_json())
        assert again == plan
        assert again.span_cycles == 50.0
        assert again.seed == 3

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown fault-plan kind"):
            FaultPlan.from_json({"kind": "cosmic_rays"})

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown fields"):
            FaultPlan.from_json({"kind": "power_cut", "volts": 0})


class TestValidation:
    def test_bad_expectation_rejected(self):
        with pytest.raises(ConfigError, match="unknown expectation"):
            PowerCutPlan(expect="probably_fine")

    def test_bad_torn_mode_rejected(self):
        # A torn persist always tears the last line: no mode field.
        for mode in ("last", "window"):
            with pytest.raises(ConfigError, match="unknown fields"):
                FaultPlan.from_json({"kind": "torn_persist", "mode": mode})

    @pytest.mark.parametrize(
        "make",
        [
            lambda: TornPersistPlan(span_cycles=0),
            lambda: DrainDropPlan(drop_every=0),
            lambda: AckDelayPlan(delay_cycles=-1),
            lambda: AckLossPlan(lose_every=0),
            lambda: NVMTransientPlan(backoff_cycles=0),
        ],
        ids=["torn", "drop", "delay", "loss", "nvm"],
    )
    def test_bad_parameters_rejected(self, make):
        with pytest.raises(ConfigError):
            make()

    def test_default_expectations(self):
        assert PowerCutPlan().expect == EXPECT_CONSISTENT
        assert TornPersistPlan().expect == EXPECT_CONSISTENT
        assert DrainDropPlan().expect == EXPECT_INCONSISTENT
        assert AckLossPlan().expect == EXPECT_HUNG

    def test_labels(self):
        assert TornPersistPlan().label == "torn_persist"
        assert NVMTransientPlan().label == "nvm_transient"
        assert (
            NVMTransientPlan(
                fails=7, max_retries=3, expect=EXPECT_FAULT_RAISED
            ).label
            == "nvm_transient:exhausted"
        )

    def test_retry_delay_is_linear_backoff_sum(self):
        plan = NVMTransientPlan(fails=3, backoff_cycles=100.0)
        assert plan.retry_delay == 100.0 + 200.0 + 300.0


class TestRetiredPayloads:
    """A payload naming a plan kind, field or expectation that does not
    exist is rejected with a typed error, not silently rebuilt."""

    @pytest.mark.parametrize(
        "payload",
        [
            {"kind": "drain_reorder"},
            {"kind": "drain_drop", "drop_offset": 2},
            {"kind": "drain_drop", "max_drops": 3},
        ],
        ids=["reorder", "drop-offset", "max-drops"],
    )
    def test_retired_payload_rejected(self, payload):
        with pytest.raises(ConfigError):
            FaultPlan.from_json(payload)

    @pytest.mark.parametrize("kind", sorted(PLAN_KINDS))
    def test_expect_any_rejected(self, kind):
        with pytest.raises(ConfigError, match="unknown expectation"):
            FaultPlan.from_json({"kind": kind, "expect": "any"})


class TestLinearBackoff:
    def test_zero_fails_cost_nothing(self):
        assert linear_backoff(400.0, 0) == 0.0
        assert NVMTransientPlan(fails=0).retry_delay == 0.0

    def test_retry_k_waits_base_times_k(self):
        # Each further failure adds one more retry of base * k cycles.
        steps = [
            linear_backoff(400.0, k) - linear_backoff(400.0, k - 1)
            for k in (1, 2, 3)
        ]
        assert steps == [400.0, 800.0, 1200.0]

    def test_matches_the_closed_form(self):
        # Retry k waits base * k, so n retries cost base * n(n+1)/2.
        for fails in range(1, 8):
            expected = sum(400.0 * k for k in range(1, fails + 1))
            assert linear_backoff(400.0, fails) == expected
            assert NVMTransientPlan(fails=fails).retry_delay == expected


class TestJobWiring:
    def make_job(self, **kwargs):
        return ScenarioJob(
            app="gpkvs",
            config=small_system(ModelName.SBRP),
            app_params=dict(n_pairs=64, capacity=128, rounds=2),
            **kwargs,
        )

    def test_faults_mode_requires_plan(self):
        with pytest.raises(ConfigError, match="fault plan"):
            self.make_job(mode=MODE_FAULTS)

    def test_plan_requires_faults_mode(self):
        with pytest.raises(ConfigError, match="fault plan"):
            self.make_job(fault=PowerCutPlan().to_json())

    def test_fault_job_round_trips(self):
        job = self.make_job(mode=MODE_FAULTS, fault=PowerCutPlan().to_json())
        again = ScenarioJob.from_json(job.to_json())
        assert again == job
        assert again.spec_hash == job.spec_hash

    def test_fault_label_names_the_kind(self):
        job = self.make_job(mode=MODE_FAULTS, fault=AckLossPlan().to_json())
        assert "ack_loss" in job.label

    def test_plain_job_spec_has_no_fault_key(self):
        """Adding the fault field must not perturb pre-existing specs
        (and therefore cache keys) of non-fault jobs."""
        assert "fault" not in self.make_job().spec

    def test_fault_changes_spec_hash(self):
        base = self.make_job(mode=MODE_FAULTS, fault=PowerCutPlan().to_json())
        other = self.make_job(
            mode=MODE_FAULTS, fault=TornPersistPlan().to_json()
        )
        assert base.spec_hash != other.spec_hash
