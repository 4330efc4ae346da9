"""Failure injection beyond single crashes: crash during recovery, and
randomized crash points (hypothesis)."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import GPUSystem, ModelName, small_system
from repro.apps import build_app
from repro.crash import CONSISTENT, recover

PARAMS = dict(n_pairs=256, capacity=512, rounds=2)


def fresh_run(model=ModelName.SBRP):
    system = GPUSystem(small_system(model))
    app = build_app("gpkvs", **PARAMS)
    app.setup(system)
    app.run(system)
    system.sync()
    return system, app


class TestCrashDuringRecovery:
    @pytest.mark.parametrize(
        "model", [ModelName.SBRP, ModelName.EPOCH], ids=lambda m: m.value
    )
    def test_double_crash_still_recovers(self, model):
        """Crash mid-run, then crash again mid-RECOVERY: the recovery
        kernel's own dFence discipline must make it re-runnable."""
        system, app = fresh_run(model)
        image1 = system.crash(at=system.now * 0.4)

        # Boot, start recovery, crash again midway through it.
        boot1 = GPUSystem(small_system(model), pm_image=image1)
        app1 = build_app("gpkvs", **PARAMS)
        app1.reopen(boot1)
        start = boot1.now
        app1.recover(boot1)
        boot1.sync()
        mid_recovery = start + (boot1.now - start) * 0.5
        image2 = boot1.crash(at=mid_recovery)

        # Second reboot: recovery must complete from the half-recovered
        # image and leave a consistent table.
        boot2 = GPUSystem(small_system(model), pm_image=image2)
        app2 = build_app("gpkvs", **PARAMS)
        app2.reopen(boot2)
        app2.recover(boot2)
        boot2.sync()
        app2.check(boot2, complete=False)

        # And the batch still completes.
        app2.run(boot2)
        boot2.sync()
        app2.check(boot2, complete=True)


class TestRandomizedCrashPoints:
    @given(fraction=st.floats(0.0, 1.0))
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_any_crash_point_is_recoverable(self, fraction):
        system, app = fresh_run()
        image = system.crash(at=system.now * fraction)
        classification, error, _, _ = recover(
            build_app("gpkvs", **PARAMS), small_system(ModelName.SBRP), image
        )
        assert classification == CONSISTENT, error


class TestTornCrashChains:
    """Crash -> recover -> crash again, with every crash image torn
    (the last in-flight line loses words): the logging protocols must
    survive repeated torn failures under every model."""

    def chain(self, model):
        from repro.faults import FaultInjector, TornPersistPlan

        def injector():
            return FaultInjector(TornPersistPlan(span_cycles=500.0))

        system = GPUSystem(small_system(model), faults=injector())
        app = build_app("gpkvs", **PARAMS)
        app.setup(system)
        app.run(system)
        system.sync()
        image1 = system.crash(at=system.now * 0.5)

        # Reboot with the injector still attached: the *rerun* after
        # recovery crashes torn as well.
        app1 = build_app("gpkvs", **PARAMS)
        classification, error, boot1, _ = recover(
            app1, small_system(model), image1, faults=injector()
        )
        assert classification == CONSISTENT, error
        assert boot1.faults is not None
        app1.run(boot1)
        boot1.sync()
        image2 = boot1.crash(at=boot1.now * 0.75)

        # Final reboot on clean hardware: recover and finish the batch.
        app2 = build_app("gpkvs", **PARAMS)
        classification, error, boot2, _ = recover(
            app2, small_system(model), image2
        )
        assert classification == CONSISTENT, error
        app2.run(boot2)
        boot2.sync()
        app2.check(boot2, complete=True)

    @pytest.mark.parametrize(
        "model", [ModelName.SBRP, ModelName.EPOCH, ModelName.GPM],
        ids=lambda m: m.value,
    )
    def test_double_torn_crash_chain(self, model):
        self.chain(model)
