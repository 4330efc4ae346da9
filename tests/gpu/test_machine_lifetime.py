"""A finished machine frees itself by reference counting.

Conformance and the figure sweeps build thousands of machines.  If a
dropped :class:`GPUSystem` is a reference cycle, it lives until the
next full collection, and cyclic GC becomes a host-time layer of its
own.  Each test here runs a workload with the collector off and
``gc.DEBUG_SAVEALL`` on, drops every reference to the machine, and
asserts that a collection finds no ``repro`` object: anything it finds
was only reachable through a cycle.

The scenarios end the way the harnesses do, with every launch synced:
a machine dropped with events still queued stays a cycle through its
engine's queue (the queued callbacks hold the SMs, which hold the
engine) until a collection.
"""

from __future__ import annotations

import gc
import types
from collections import Counter

import pytest

from repro import GPUSystem, ModelName, small_system
from repro.apps import build_app
from repro.bench.runner import RECOVERY_STAT, run_scenario
from repro.check.corpus import corpus_programs
from repro.check.enumerator import SMOKE_VARIANTS
from repro.check.oracle import check_program
from repro.crash import CrashHarness
from repro.metrics import MetricsRegistry
from repro.faults import PowerCutPlan, run_fault_scenario
from repro.serve.app import build_serve_app

MODELS = [ModelName.GPM, ModelName.EPOCH, ModelName.SBRP]
GPKVS = dict(n_pairs=64, capacity=128, rounds=2)
SERVE = dict(n_requests=48, n_keys=48, capacity=128, batch_requests=24)


def _module_of(obj: object) -> str:
    if type(obj) is types.FunctionType:  # type(): safe on dead proxies
        return obj.__module__ or ""
    return type(obj).__module__


def cyclic_repro_garbage(scenario) -> Counter:
    """Run *scenario* with the collector off; return the type names of
    the ``repro`` objects that only a collection could free."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.garbage.clear()
        scenario()
        gc.collect()
        return Counter(
            type(obj).__qualname__
            for obj in gc.garbage
            if _module_of(obj).startswith("repro")
        )
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()


def _gpkvs(model: ModelName, **system_kwargs) -> GPUSystem:
    system = GPUSystem(small_system(model), **system_kwargs)
    app = build_app("gpkvs", **GPKVS)
    app.setup(system)
    app.run(system)
    return system


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.value)
class TestMachineLifetime:
    def test_gpkvs_sim(self, model):
        def scenario():
            system = _gpkvs(model)
            system.sync()
            system.crash()

        assert cyclic_repro_garbage(scenario) == Counter()

    def test_traced_gpkvs_sim(self, model):
        def scenario():
            system = _gpkvs(model, trace=True)
            system.sync()
            system.trace_report()

        assert cyclic_repro_garbage(scenario) == Counter()

    def test_two_serve_batches(self, model):
        def scenario():
            system = GPUSystem(small_system(model), metrics=MetricsRegistry())
            app = build_serve_app(**SERVE)
            app.setup(system)
            app.serve_batch(system, 0)
            app.serve_batch(system, 1)

        assert cyclic_repro_garbage(scenario) == Counter()

    def test_reboot_from_a_mid_run_crash_image(self, model):
        def scenario():
            harness = CrashHarness(
                lambda: build_app("gpkvs", **GPKVS), small_system(model)
            )
            report = harness.crash_at_fraction(0.5)
            assert report.consistent and report.completed

        assert cyclic_repro_garbage(scenario) == Counter()

    def test_recovering_scenario_run(self, model):
        def scenario():
            result = run_scenario("gpkvs", small_system(model), GPKVS, recover=True)
            assert result.stat(RECOVERY_STAT) > 0

        assert cyclic_repro_garbage(scenario) == Counter()

    def test_fault_scenario(self, model):
        def scenario():
            fault = dict(PowerCutPlan().to_json(), max_crash_points=3)
            result = run_fault_scenario("gpkvs", small_system(model), GPKVS, fault)
            assert result.detail["outcome"] == "consistent"

        assert cyclic_repro_garbage(scenario) == Counter()

    def test_conformance_check_program(self, model):
        program = corpus_programs()[0]

        def scenario():
            report = check_program(program, model, list(SMOKE_VARIANTS))
            assert report["violations"] == 0

        assert cyclic_repro_garbage(scenario) == Counter()
