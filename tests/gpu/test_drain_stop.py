"""``GPU.sync`` stops on the models' stop flag, at the exact event the
per-event predicate "every SM is drained" first held.

The reference below is that predicate: it steps the engine one event at
a time and checks every SM after each, as the drain loop did before the
models raised the flag.  Both must leave the machine at the same clock,
event count and queue."""

import pytest

from repro import GPUSystem, ModelName, Scope, small_system
from repro.apps import build_app
from repro.check.corpus import corpus_programs
from repro.check.enumerator import VARIANTS
from repro.common.errors import SimulationError
from repro.faults import AckLossPlan, build_injector
from repro.formal.bridge import base_config, simulate_program
from repro.gpu.device import GPU

MODELS = [ModelName.GPM, ModelName.EPOCH, ModelName.SBRP]


SHIPPED_SYNC = GPU.sync


def step(engine):
    """Run exactly the next event, through ``Engine.run``: the front of
    the queue it pops next is rewrapped to raise the stop flag."""
    queue, fifo = engine._queue, engine._fifo
    front = fifo if not queue or (fifo and fifo[0] < queue[0]) else queue
    time, seq, fn = front[0]

    def then_stop(t):
        fn(t)
        engine._stop = True

    front[0] = (time, seq, then_stop)
    engine.run()


def reference_sync(gpu):
    engine, model, sms = gpu.engine, gpu.model, gpu.sms
    for sm in sms:
        model.begin_drain(sm, engine.now)
    while engine.pending() and not all(model.drained(sm, engine.now) for sm in sms):
        step(engine)
    if not all(model.drained(sm, engine.now) for sm in sms):
        raise SimulationError("drain stalled")
    for sm in sms:
        model.finish_drain(sm)
    return engine.now


@pytest.fixture
def sync_log(monkeypatch):
    """Run with the shipped or the reference sync; log where each stops."""

    def install(sync):
        log = []

        def logged(gpu):
            end = sync(gpu)
            engine = gpu.engine
            log.append((end, engine.events_processed, engine.pending()))
            return end

        monkeypatch.setattr(GPU, "sync", logged)
        return log

    return install


def litmus_runs():
    for program in corpus_programs():
        for model in MODELS:
            base = base_config(program, model)
            for variant in VARIANTS:
                simulate_program(
                    program,
                    model,
                    config=variant.configure(base),
                    thread_order=variant.thread_order(program),
                )


def app_runs():
    for model in MODELS:
        system = GPUSystem(small_system(model, num_sms=4))
        app = build_app("reduction", blocks=8, per_thread=2)
        app.setup(system)
        app.run(system)
        system.sync()
        system.sync()


@pytest.mark.parametrize("runs", [litmus_runs, app_runs])
def test_drain_stops_where_the_predicate_first_holds(sync_log, runs):
    shipped = sync_log(SHIPPED_SYNC)
    runs()
    reference = sync_log(reference_sync)
    runs()
    assert len(shipped) > 1
    assert shipped == reference


def pm_writer(w, data):
    yield w.st(data.base + 128 * w.warp_in_block, 1, mask=w.lane == 0)
    yield w.ofence()
    yield w.st(data.base + 1024 + 128 * w.warp_in_block, 2, mask=w.lane == 0)


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.value)
def test_sync_of_a_drained_machine_processes_no_event(model):
    system = GPUSystem(small_system(model))
    engine = system.gpu.engine
    system.sync()
    assert engine.events_processed == 0
    data = system.pm_create("data", 4096)
    system.launch(pm_writer, grid_blocks=2, args=(data,))
    end = system.sync()
    events = engine.events_processed
    assert system.sync() == end
    assert engine.events_processed == events
    # A later launch runs to completion: no stale stop survives.
    system.launch(pm_writer, grid_blocks=2, args=(data,))
    assert system.sync() > end


def test_stalled_drain_still_raises():
    system = GPUSystem(
        small_system(ModelName.SBRP),
        faults=build_injector(AckLossPlan(lose_after=0)),
    )
    data = system.pm_create("data", 4096)
    system.launch(pm_writer, grid_blocks=1, args=(data,))
    with pytest.raises(SimulationError, match="drain stalled"):
        system.sync()


def test_stop_flag_is_not_left_raised_by_a_release():
    """Epoch's parked drain events may stay queued after a sync; a
    later launch with a device-scope release must still complete."""

    def release(w, flag):
        yield w.prel(flag.base, 1, Scope.DEVICE)

    system = GPUSystem(small_system(ModelName.EPOCH))
    flag = system.pm_create("flag", 128)
    for _ in range(3):
        system.launch(release, grid_blocks=2, args=(flag,))
        system.sync()
        system.sync()
