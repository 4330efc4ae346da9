"""Soak chains: payload validation and soak-mode job plumbing.  The
chains themselves run as cells of the fault campaign
(``tests/faults/test_campaign.py``)."""

import json
from dataclasses import replace

import pytest

from repro.common.config import ModelName, small_system
from repro.common.errors import ConfigError, FaultInjectionError
from repro.exec.jobs import ScenarioJob
from repro.faults.campaign import soak_cells
from repro.faults.plans import EXPECT_FAULT_RAISED, FaultWindow, TimelinePlan
from repro.faults.soak import SOAK_PARAMS, brownout_burst, run_soak_scenario
from repro.serve.app import ServeKVS


def soak_payload(**overrides):
    payload = {
        "timeline": brownout_burst().to_json(),
        "crash_every_batches": 2,
        "crash_fraction": 0.6,
    }
    payload.update(overrides)
    return payload


class TestSoakPayloadValidation:
    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown soak payload keys"):
            run_soak_scenario(
                "serve_kvs",
                small_system(ModelName.SBRP),
                dict(SOAK_PARAMS),
                soak_payload(crash_flavour="spicy"),
            )

    def test_timeline_is_required(self):
        with pytest.raises(ValueError, match="timeline"):
            run_soak_scenario(
                "serve_kvs",
                small_system(ModelName.SBRP),
                dict(SOAK_PARAMS),
                {"crash_every_batches": 2},
            )


class TestSoakOutcome:
    def test_exhausted_burst_stops_the_chain(self):
        # Every 7th persist failing 7 times exceeds the device retry
        # budget of 5: the chain stops with a typed fault, as declared.
        timeline = TimelinePlan(
            expect=EXPECT_FAULT_RAISED,
            windows=(
                FaultWindow("burst", 4000.0, 9000.0, intensity=7.0, every=7),
            ),
        )
        result = run_soak_scenario(
            "serve_kvs",
            small_system(ModelName.SBRP),
            dict(SOAK_PARAMS),
            soak_payload(timeline=timeline.to_json()),
        )
        failure = result.detail["failure"]
        assert failure["stage"] == "serve"
        assert failure["classification"] == "fault_raised"
        assert result.detail["outcome"] == "fault_raised"
        assert result.detail["matched"]

    def test_raising_recovery_is_a_classified_failure(self, monkeypatch):
        # The chain reboots onto the faulted machine, so its recovery
        # can raise; that ends the chain as the oracle's
        # recovery_raised, not as an uncaught job error.
        def exhausted(self, system):
            raise FaultInjectionError("burst exhausted the retry budget")

        monkeypatch.setattr(ServeKVS, "recover", exhausted)
        result = run_soak_scenario(
            "serve_kvs",
            small_system(ModelName.SBRP),
            dict(SOAK_PARAMS),
            soak_payload(),
        )
        failure = result.detail["failure"]
        assert failure["stage"] == "oracle"
        assert failure["classification"] == "recovery_raised"
        assert result.detail["outcome"] == "inconsistent"
        (reboot,) = result.detail["reboots"]
        assert reboot["oracle"] == "recovery_raised"
        assert result.detail["recovery_cycles"] == []


class TestSoakSnapshot:
    def test_snapshot_counters_are_chain_wide(self):
        """Every machine of the chain records into the one registry, so
        byte and line counters cover the same machines."""
        from repro.perfcore.grid import build_grid

        (cell,) = [c for c in build_grid() if c.kind == "soak"]
        payload = cell.payload
        result = run_soak_scenario(
            "serve_kvs",
            small_system(ModelName(payload["model"])),
            dict(payload["params"]),
            dict(payload["soak"]),
        )
        assert result.stats["soak.crashes"] >= 1
        counters = result.metrics["counters"]
        assert counters["persist.lines"] > 0
        assert counters["persist.bytes"] == 128 * counters["persist.lines"]


class TestStormSqueeze:
    @pytest.mark.parametrize("model", ["gpm", "epoch", "sbrp"])
    def test_ack_storm_defers_acks(self, model):
        # The storm window must cover the stream's persist traffic:
        # otherwise the schedule is only a WPQ squeeze.
        [cell] = [
            cell
            for cell in soak_cells((ModelName(model),), full=True)
            if "ack_storm" in cell.timeline.label
        ]
        detail = cell.job().execute().detail
        assert detail["injected"].get("stormed_acks", 0) > 0
        assert detail["outcome"] == "consistent" and detail["matched"]
        assert len(detail["reboots"]) == 2
        assert detail["lost_committed"] == []


class TestSoakJobs:
    def job(self):
        return soak_cells((ModelName.SBRP,), full=False)[0].job()

    def test_round_trips_through_json(self):
        job = self.job()
        clone = ScenarioJob.from_json(json.loads(json.dumps(job.to_json())))
        assert clone == job
        assert clone.spec_hash == job.spec_hash

    def test_label_names_mode_and_windows(self):
        assert "[soak]" in self.job().label
        assert "[brownout+burst]" in self.job().label

    def test_soak_payload_only_valid_in_soak_mode(self):
        job = self.job()
        with pytest.raises(ConfigError):
            replace(job, mode="scenario")
        with pytest.raises(ConfigError):
            replace(job, soak=None)
