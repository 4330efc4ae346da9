"""Fault timelines: window semantics, JSON round-trips, and how the
fault injector reads them at global chain time."""

import pytest

from repro.common.config import ModelName, small_system
from repro.common.errors import ConfigError, FaultInjectionError
from repro.faults.injector import FaultInjector, build_injector
from repro.faults.plans import (
    WINDOW_KINDS,
    FaultPlan,
    FaultWindow,
    PowerCutPlan,
    TimelinePlan,
)
from repro.system import GPUSystem


def brownout(start=100.0, end=200.0, intensity=0.25):
    return FaultWindow("brownout", start, end, intensity=intensity)


class TestFaultWindow:
    def test_contains_is_half_open(self):
        w = brownout()
        assert not w.contains(99.9)
        assert w.contains(100.0)
        assert w.contains(199.9)
        assert not w.contains(200.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            FaultWindow("meteor", 0.0, 1.0)

    @pytest.mark.parametrize("start,end", [(-1.0, 5.0), (5.0, 5.0), (5.0, 4.0)])
    def test_bad_interval_rejected(self, start, end):
        with pytest.raises(ConfigError):
            FaultWindow("brownout", start, end, intensity=0.5)

    def test_kind_specific_intensity_bounds(self):
        with pytest.raises(ConfigError):
            FaultWindow("brownout", 0.0, 1.0, intensity=1.5)
        with pytest.raises(ConfigError):
            FaultWindow("burst", 0.0, 1.0, intensity=0.0)
        with pytest.raises(ConfigError):
            FaultWindow("ack_storm", 0.0, 1.0, intensity=-1.0)
        with pytest.raises(ConfigError):
            FaultWindow("wpq_squeeze", 0.0, 1.0, intensity=0.5)
        with pytest.raises(ConfigError):
            FaultWindow("burst", 0.0, 1.0, intensity=2.0, every=0)


class TestTimelinePlan:
    def test_json_round_trip(self):
        plan = TimelinePlan(
            windows=(
                brownout(),
                FaultWindow("burst", 50.0, 80.0, intensity=3.0, every=7),
            )
        )
        clone = FaultPlan.from_json(plan.to_json())
        assert isinstance(clone, TimelinePlan)
        assert clone == plan
        assert clone.windows[1].every == 7

    def test_windows_coerce_from_dicts(self):
        plan = TimelinePlan(
            windows=(
                {"kind": "wpq_squeeze", "start": 0.0, "end": 9.0, "intensity": 2.0},
            )
        )
        assert isinstance(plan.windows[0], FaultWindow)

    def test_label(self):
        assert TimelinePlan().label == "timeline:empty"
        plan = TimelinePlan(
            windows=(brownout(end=300.0), FaultWindow("burst", 0.0, 50.0))
        )
        assert plan.label == "timeline:brownout+burst"

    def test_memory_wires_the_controller_throttle(self):
        timed = GPUSystem(
            small_system(ModelName.SBRP),
            faults=build_injector(TimelinePlan(windows=(brownout(),))),
        )
        nvm = timed.gpu.subsystem.nvm
        assert all(c.throttle is timed.faults for c in nvm)
        point = GPUSystem(
            small_system(ModelName.SBRP),
            faults=build_injector(PowerCutPlan()),
        )
        assert all(c.throttle is None for c in point.gpu.subsystem.nvm)

    def test_window_kinds_are_pinned(self):
        # Reports and job labels key off these names; renames are breaking.
        assert WINDOW_KINDS == ("brownout", "burst", "ack_storm", "wpq_squeeze")


class TestTimelineInjector:
    def test_brownout_scales_only_inside_window(self):
        inj = FaultInjector(TimelinePlan(windows=(brownout(intensity=0.5),)))
        assert inj.nvm_scale_at(50.0) == 1.0
        assert inj.nvm_scale_at(150.0) == 0.5
        assert inj.nvm_scale_at(200.0) == 1.0

    def test_overlapping_brownouts_compound(self):
        inj = FaultInjector(
            TimelinePlan(
                windows=(brownout(intensity=0.5), brownout(intensity=0.2))
            )
        )
        assert inj.nvm_scale_at(150.0) == pytest.approx(0.1)

    def test_squeeze_clamp_and_idle_default(self):
        inj = FaultInjector(
            TimelinePlan(
                windows=(FaultWindow("wpq_squeeze", 10.0, 20.0, intensity=3.0),)
            )
        )
        assert inj.wpq_limit_at(5.0) == 0
        assert inj.wpq_limit_at(15.0) == 3

    def test_time_offset_shifts_windows(self):
        plan = TimelinePlan(windows=(brownout(intensity=0.5),))
        rebooted = FaultInjector(plan, time_offset=120.0)
        # machine-local 30 is global 150: inside the window.
        assert rebooted.nvm_scale_at(30.0) == 0.5
        assert rebooted.nvm_scale_at(150.0) == 1.0

    def test_burst_adds_device_retry_delay(self):
        plan = TimelinePlan(
            windows=(FaultWindow("burst", 0.0, 100.0, intensity=2.0, every=5),)
        )
        inj = FaultInjector(plan)
        assert inj.persist_delay(3, now=10.0) == 0.0
        # 2 failures on the linear device schedule: 400 + 800.
        assert inj.persist_delay(5, now=10.0) == 1200.0
        assert inj.counts["nvm_transient_failures"] == 2
        # Outside the window the same persist is untouched.
        assert inj.persist_delay(5, now=500.0) == 0.0

    def test_burst_exhausts_device_budget(self):
        plan = TimelinePlan(
            windows=(FaultWindow("burst", 0.0, 100.0, intensity=7.0),)
        )
        inj = FaultInjector(plan)
        with pytest.raises(FaultInjectionError, match="device retry budget"):
            inj.persist_delay(1, now=10.0)
        assert inj.counts["nvm_retry_exhausted"] == 1

    def test_burst_at_the_budget_boundary(self):
        def burst(fails):
            window = FaultWindow("burst", 0.0, 100.0, intensity=fails)
            return FaultInjector(
                TimelinePlan(windows=(window,), device_max_retries=3)
            )

        # Exactly the budget still retries; one more escalates.
        assert burst(3).persist_delay(1, now=10.0) == 400.0 + 800.0 + 1200.0
        with pytest.raises(FaultInjectionError):
            burst(4).persist_delay(1, now=10.0)

    def test_ack_storm_defers_to_window_close(self):
        plan = TimelinePlan(
            windows=(FaultWindow("ack_storm", 100.0, 200.0, intensity=50.0),)
        )
        inj = FaultInjector(plan)
        assert inj.transform_ack(1, 140.0, 150.0) == 250.0
        assert inj.counts["stormed_acks"] == 1
        assert inj.transform_ack(2, 290.0, 300.0) == 300.0
        # Offset machines defer to the same *global* instant.
        shifted = FaultInjector(plan, time_offset=120.0)
        assert shifted.transform_ack(1, 20.0, 30.0) == 130.0

    def test_injection_is_deterministic(self):
        plan = TimelinePlan(
            windows=(
                brownout(),
                FaultWindow("burst", 0.0, 500.0, intensity=2.0, every=3),
            )
        )
        a = FaultInjector(plan)
        b = FaultInjector(plan)
        trace_a = [a.persist_delay(seq, now=float(seq)) for seq in range(1, 40)]
        trace_b = [b.persist_delay(seq, now=float(seq)) for seq in range(1, 40)]
        assert trace_a == trace_b
        assert a.counts == b.counts
