"""Crash-recovery round trips: every app, every model, many instants."""

import pytest

from repro import GPUSystem, ModelName, Scope, small_system
from repro.apps import APPS, App, RunOutcome, app_names, build_app
from repro.common.errors import RecoveryError, SimulationError
from repro.crash import RECOVERY_RAISED, CrashHarness
from repro.memory.address_space import Allocation

SIZES = {
    "gpkvs": dict(n_pairs=512, capacity=1024, rounds=2),
    "hashmap": dict(n_inserts=512, capacity=1024, rounds=2),
    "srad": dict(side=24),
    "reduction": dict(blocks=3, per_thread=2),
    "multiqueue": dict(batches=2, blocks=3),
    "scan": dict(blocks=3),
    "serve_kvs": dict(n_requests=96, n_keys=96, capacity=256, batch_requests=48),
}


@pytest.mark.parametrize("name", sorted(APPS))
class TestCrashSweep:
    def test_recover_and_complete_from_any_instant(self, name, model):
        harness = CrashHarness(
            lambda: build_app(name, **SIZES[name]), small_system(model)
        )
        for report in harness.sweep(points=5):
            assert report.consistent, report.error
            assert report.completed, report.error


class TestHarnessMechanics:
    def make(self, model=ModelName.SBRP):
        return CrashHarness(
            lambda: build_app("gpkvs", **SIZES["gpkvs"]), small_system(model)
        )

    def test_crash_at_zero_recovers_to_initial_state(self):
        report = self.make().crash_at(0.0)
        assert report.consistent and report.completed

    def test_crash_at_end_preserves_all_work(self):
        harness = self.make()
        report = harness.crash_at(harness.end_time())
        assert report.consistent and report.completed

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            self.make().crash_at_fraction(1.5)

    def test_worst_case_recovery_cycles_positive(self):
        assert self.make().recovery_cycles_at_worst_case() > 0

    def test_baseline_is_cached(self):
        harness = self.make()
        first = harness.baseline()
        assert harness.baseline() is first


@pytest.mark.parametrize("name", ["gpkvs", "reduction", "scan", "serve_kvs"])
def test_adopted_run_recovers_like_a_fresh_harness(name, model):
    """Crashing a finished, synced and checked run gives the recovery a
    harness that simulates its own baseline gives."""
    config = small_system(model)

    def factory():
        return build_app(name, **SIZES[name])

    system = GPUSystem(config)
    app = factory()
    app.setup(system)
    run = app.run(system)
    system.sync()
    app.check(system, complete=True)
    instructions = system.stat("sm.instructions")
    adopted = CrashHarness(factory, config).adopt(system, run)
    cycles = adopted.recovery_cycles_at_worst_case()
    assert adopted.baseline() is system
    assert system.stat("sm.instructions") == instructions  # nothing re-ran
    assert cycles == CrashHarness(factory, config).recovery_cycles_at_worst_case()


class BrokenRecovery(App):
    """One PM word; its recovery kernel dies with a simulator error."""

    name = "broken_recovery"

    def attach(self, system, pm):
        self.word = pm("broken.word", 4)

    def run(self, system):
        return RunOutcome([system.launch(self._store, 1)])

    def _store(self, w):
        yield w.st(self.word.base, 1, mask=w.lane == 0)

    def recover(self, system):
        raise SimulationError("recovery kernel faulted")

    def check(self, system, complete=True):
        pass


class TestRecoveryRaised:
    def make(self):
        return CrashHarness(BrokenRecovery, small_system(ModelName.SBRP))

    def test_raising_recovery_is_a_recovery_raised_report(self):
        report = self.make().crash_at(0.0)
        assert report.classification == RECOVERY_RAISED
        assert not report.consistent and not report.completed
        assert report.error == "SimulationError: recovery kernel faulted"
        assert report.recovery_cycles == 0.0

    def test_worst_case_recovery_rejects_it(self):
        with pytest.raises(RecoveryError, match="SimulationError"):
            self.make().recovery_cycles_at_worst_case()


def layout(app):
    """Every region the app mapped, by attribute name."""
    found = {}
    for attr, value in vars(app).items():
        if isinstance(value, Allocation):
            found[attr] = value
        elif isinstance(value, list) and value and isinstance(value[0], Allocation):
            found[attr] = tuple(value)
    return found


@pytest.mark.parametrize("name", app_names())
def test_reopen_maps_the_regions_setup_created(name):
    """``setup`` and ``reopen`` share one ``attach``: on the rebooted
    machine every region (PM and volatile) lands where setup put it."""
    config = small_system(ModelName.SBRP)
    system = GPUSystem(config)
    app = build_app(name, **SIZES[name])
    app.setup(system)
    created = layout(app)
    assert created
    app.run(system)
    system.sync()
    image = system.crash(at=system.now / 2)

    reopened = build_app(name, **SIZES[name])
    reopened.reopen(GPUSystem.reboot(system, image))
    assert layout(reopened) == created


class TestScopedPersistencyBug:
    """Section 5.3: using a narrower scope than program semantics needs.

    The producer's pX persist is delayed in its persist buffer behind an
    earlier fenced persist (FSM).  A *device*-scope release only
    publishes its flag once pX is durable, so the cross-block consumer
    always reads 7; a *block*-scope release (the bug) publishes
    immediately and the consumer reads a stale 0.
    """

    def run_demo(self, scope: Scope) -> int:
        system = GPUSystem(small_system(ModelName.SBRP, num_sms=2))
        pm = system.pm_create("pm", 4096)
        flag = system.malloc(128)
        out = system.malloc(128)
        pa, px = pm.word(0), pm.word(64)

        def kernel(w, pa, px, flag, out, scope):
            lead = w.lane == 0
            if w.block_id == 1 and w.warp_in_block == 0:
                yield w.st(pa, 1, mask=lead)
                yield w.ofence()
                yield w.st(px, 7, mask=lead)  # FSM-delayed behind pa's ack
                yield w.prel(flag, 1, scope)
            elif w.block_id == 0 and w.warp_in_block == 0:
                while True:
                    got = yield w.pacq(flag, Scope.DEVICE)
                    if got:
                        break
                vals = yield w.ld(px, mask=lead)
                yield w.st(out, vals, mask=lead)

        system.launch(kernel, 2, args=(pa, px, flag.base, out.base, scope))
        system.sync()
        return system.read_word(out.base)

    def test_correct_device_scope_sees_the_persist(self):
        assert self.run_demo(Scope.DEVICE) == 7

    def test_block_scope_bug_reads_stale_data(self):
        assert self.run_demo(Scope.BLOCK) == 0


class TestPersistBoundaries:
    def make(self, model=ModelName.SBRP):
        return CrashHarness(
            lambda: build_app("gpkvs", **SIZES["gpkvs"]), small_system(model)
        )

    def test_fraction_zero_is_the_initial_image(self):
        report = self.make().crash_at_fraction(0.0)
        assert report.crash_time == 0.0
        assert report.consistent and report.completed

    def test_fraction_one_is_the_end_of_run(self):
        harness = self.make()
        report = harness.crash_at_fraction(1.0)
        assert report.crash_time == harness.end_time()
        assert report.consistent and report.completed

    def test_boundaries_start_at_zero_sorted_distinct(self):
        times = self.make().persist_boundaries()
        assert times[0] == 0.0
        assert times == sorted(times)
        assert len(set(times)) == len(times)
        assert len(times) > 10  # gpkvs persists plenty of lines

    def test_limit_subsamples_keeping_endpoints(self):
        harness = self.make()
        full = harness.persist_boundaries()
        sub = harness.persist_boundaries(limit=7)
        assert len(sub) == 7
        assert sub[0] == full[0] and sub[-1] == full[-1]
        assert set(sub) <= set(full)

    def test_crash_at_every_persist_is_recoverable(self, model):
        harness = CrashHarness(
            lambda: build_app("gpkvs", **SIZES["gpkvs"]), small_system(model)
        )
        reports = harness.crash_at_every_persist(limit=10)
        assert 0 < len(reports) <= 10
        for report in reports:
            assert report.consistent, report.error
