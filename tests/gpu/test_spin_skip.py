"""The spin skip (DESIGN §13) is exact.

Each case runs twice: as shipped, and with ``repro.gpu.sm.skip_spins``
monkeypatched to do nothing, so every pure spin is popped and issued
one event at a time.  After every engine run (each launch and each
sync) both must leave the same clock, the same event count, the same
full ``stats.snapshot()`` and the same pending queue in pop order.  Each
case also checks that the skip really ran.  Every case runs on the
shipped engine and on one whose every event goes through one ``heapq``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace

import pytest

import repro.gpu.device as device
import repro.gpu.sm as sm_module
from repro import GPUSystem, ModelName, PMPlacement, Scope, small_system
from repro.apps import build_app
from repro.apps.common import spin_pacq
from repro.check.corpus import corpus_programs
from repro.common.errors import LivelockError, SimulationError
from repro.formal.bridge import simulate_program
from repro.formal.events import EventKind
from repro.gpu.engine import Engine

from conftest import HeapOnlyEngine

MODELS = [ModelName.GPM, ModelName.EPOCH, ModelName.SBRP]


@pytest.fixture(params=["fast", "heap"])
def queue(request, monkeypatch):
    """Run on the shipped engine, or with every event on one heap."""
    if request.param == "heap":
        monkeypatch.setattr(device, "Engine", HeapOnlyEngine)
    return request.param


def _label(fn) -> str:
    name = getattr(fn, "__qualname__", type(fn).__name__)
    sm_id = getattr(getattr(fn, "__self__", None), "sm_id", None)
    return name if sm_id is None else f"{name}@sm{sm_id}"


def _state(engine: Engine) -> tuple:
    pending = list(engine._queue)
    if isinstance(engine._fifo, deque):
        pending += engine._fifo
    order = [(time, _label(fn)) for time, _, fn in sorted(pending)]
    return engine.now, engine.events_processed, engine.stats.snapshot(), order


@pytest.fixture
def compare(monkeypatch):
    """``compare(run)`` runs *run* with and without the skip and returns
    both logs and the number of events the skip replayed."""
    shipped_run, shipped_skip, shipped_skip_spins = (
        Engine.run,
        Engine.skip,
        sm_module.skip_spins,
    )
    log = []
    skipped = [0]

    def logged_run(self):
        try:
            return shipped_run(self)
        finally:
            log.append(_state(self))

    def counted_skip(self, moved, events, limit, end):
        done = shipped_skip(self, moved, events, limit, end)
        if done:
            skipped[0] += events
        return done

    monkeypatch.setattr(Engine, "run", logged_run)
    monkeypatch.setattr(Engine, "skip", counted_skip)

    def run_both(run):
        log.clear()
        skipped[0] = 0
        shipped = run()
        shipped_log = list(log)
        count = skipped[0]
        log.clear()
        skipped[0] = 0
        monkeypatch.setattr(sm_module, "skip_spins", lambda engine: None)
        try:
            reference = run()
        finally:
            monkeypatch.setattr(sm_module, "skip_spins", shipped_skip_spins)
        assert skipped[0] == 0
        return (shipped, shipped_log), (reference, list(log)), count

    return run_both


def run_app(model: ModelName, name: str, params: dict):
    def run():
        system = GPUSystem(small_system(model, PMPlacement.FAR, num_sms=2))
        app = build_app(name, **params)
        app.setup(system)
        app.run(system)
        system.sync()
        app.check(system)
        return system.now

    return run


APPS = {
    "multiqueue": dict(batches=2, blocks=3),
    "reduction": dict(blocks=4, per_thread=2),
}


@pytest.mark.parametrize("name", sorted(APPS))
@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.value)
def test_apps_match_the_unskipped_run(compare, queue, model, name):
    shipped, reference, skipped = compare(run_app(model, name, APPS[name]))
    assert skipped > 0
    assert shipped == reference


def two_sm_release(model: ModelName, delay: int, polls: list):
    """Block 0 (SM 0) spins on a flag that warp 0 of block 1 (SM 1)
    releases at device scope after *delay* cycles.  *polls* collects,
    from the unskipped run, the value each poll on SM 0 read in the
    cycle the flag was published."""

    def run():
        system = GPUSystem(small_system(model, num_sms=2))
        flag = system.malloc(128).base
        published = []
        model_obj = system.gpu.model
        publish = model_obj.publish_flag

        def logged_publish(sm, addr, value):
            published.append(system.now)
            return publish(sm, addr, value)

        model_obj.publish_flag = logged_publish
        poll = sm_module.SM._process_pacq
        seen = []

        def logged_poll(sm, warp, op, now):
            pure = poll(sm, warp, op, now)
            seen.append((now, sm.sm_id, sm.backing.visible.get(op.addr, 0)))
            return pure

        def kernel(w):
            if w.block_id == 0:
                yield from spin_pacq(w, flag, Scope.DEVICE)
            elif w.warp_in_block == 0:
                yield w.compute(delay)
                yield w.prel(flag, 1, Scope.DEVICE)

        sm_module.SM._process_pacq = logged_poll
        try:
            system.launch(kernel, grid_blocks=2)
        finally:
            sm_module.SM._process_pacq = poll
        polls.append(
            [value for now, sm_id, value in seen if sm_id == 0 and now == published[0]]
        )
        return system.now

    return run


@pytest.mark.parametrize(
    "model, order",
    [
        # Epoch and GPM publish in an event queued at the release, so a
        # poll in that cycle pops after it; SBRP publishes in a pump
        # queued during the cycle, behind the poll.
        (ModelName.EPOCH, "publish first"),
        (ModelName.GPM, "publish first"),
        (ModelName.SBRP, "poll first"),
    ],
    ids=lambda v: getattr(v, "value", v),
)
def test_release_in_the_cycle_of_a_poll(compare, queue, model, order):
    polls = []
    skipped = 0
    for delay in range(1, 120):
        shipped, reference, count = compare(two_sm_release(model, delay, polls))
        skipped += count
        assert shipped == reference, f"delay {delay}"
    # polls holds the reference run's same-cycle polls of each delay.
    same_cycle = [value for run in polls[1::2] for value in run]
    assert same_cycle, "no poll fell in the publishing cycle"
    want = 1 if order == "publish first" else 0
    assert set(same_cycle) == {want}
    assert skipped > 0


def test_computing_warps_beside_spinners(compare, queue):
    """On SMs 0 and 1 warp 0 computes while the others spin, so its
    ready time ends each window; SM 2 only computes, so its issues are
    boundaries that fall inside those windows."""

    def run():
        system = GPUSystem(small_system(ModelName.SBRP, num_sms=3))
        flags = system.malloc(128 * 2).base
        out = system.malloc(128).base

        def kernel(w):
            block = w.block_id
            if block == 2:
                for _ in range(25):
                    yield w.compute(61)
            elif w.warp_in_block == 0:
                for i in range(12):
                    yield w.compute(97 + 53 * block + i % 7)
                yield w.prel(flags + 128 * block, 1, Scope.BLOCK)
            else:
                got = yield from spin_pacq(w, flags + 128 * block, Scope.BLOCK)
                yield w.st(out + 4 * w.warp_in_block, got, mask=w.lane == 0)

        system.launch(kernel, grid_blocks=3)
        system.sync()
        return system.now

    shipped, reference, skipped = compare(run)
    assert skipped > 0
    assert shipped == reference


def staggered_spinners(delays, stop_at: float):
    """Block *b* (on SM *b*) spins after computing ``delays[b]`` cycles
    on a flag nobody releases; an event at *stop_at* stops the run, so
    the queue is compared while every SM still has an issue pending."""

    def run():
        system = GPUSystem(small_system(ModelName.SBRP, num_sms=len(delays)))
        flag = system.malloc(128).base
        engine = system.gpu.engine

        def stop(now):
            engine._stop = True

        def kernel(w):
            yield w.compute(delays[w.block_id] + 3 * w.warp_in_block)
            yield from spin_pacq(w, flag, Scope.BLOCK)

        engine.schedule(stop_at, stop)
        with pytest.raises(SimulationError, match="deadlocked"):
            system.launch(kernel, grid_blocks=len(delays))
        return system.now

    return run


@pytest.mark.parametrize("delays", [(1, 1, 1), (1, 2, 5), (7, 3, 1), (0, 21, 40)])
def test_requeued_issues_keep_the_queue_order(compare, queue, delays):
    """Several SMs whose issues tie in the same cycles: after each
    skip, the SMs' next issues must pop in the order the unskipped run
    gives them."""
    skipped = 0
    for stop_at in range(300, 700, 37):
        shipped, reference, count = compare(staggered_spinners(delays, stop_at))
        skipped += count
        assert shipped == reference, f"stop at {stop_at}"
    assert skipped > 0


def _observation(obs) -> tuple:
    return (
        obs.end,
        obs.images,
        obs.final_image,
        obs.dfence_images,
        obs.reads_from,
    )


def test_litmus_corpus(compare, queue):
    def run():
        return [
            _observation(simulate_program(program, model))
            for program in corpus_programs()
            for model in MODELS
        ]

    shipped, reference, skipped = compare(run)
    assert skipped > 0
    assert shipped == reference


# ----------------------------------------------------------------------
# The retried op: exit tests and the failure paths
# ----------------------------------------------------------------------
def test_spin_pacq_exits_on_a_negative_flag():
    system = GPUSystem(small_system(ModelName.SBRP, num_sms=1))
    flag = system.malloc(128).base
    out = system.malloc(128).base

    def kernel(w):
        if w.warp_in_block == 0:
            yield w.compute(200)
            yield w.prel(flag, -3, Scope.BLOCK)
        elif w.warp_in_block == 1:
            got = yield from spin_pacq(w, flag, Scope.BLOCK)
            yield w.st(out, got, mask=w.lane == 0)

    system.launch(kernel, grid_blocks=1)
    system.sync()
    assert system.read_word(out) == -3
    assert system.stat("sm.pacq_spins") > 0


def test_at_least_must_be_positive():
    system = GPUSystem(small_system(ModelName.SBRP, num_sms=1))

    def kernel(w):
        yield w.pacq(64, Scope.BLOCK, at_least=0)

    with pytest.raises(ValueError, match="at_least"):
        system.launch(kernel, grid_blocks=1)


def stale_kernel(loop: bool):
    """Warp 1 waits for the flag to reach 2; warp 0 releases 1 first,
    so warp 1 also reads a stale non-zero value.  *loop* writes the wait
    as a hand-written generator loop over plain acquires."""

    def kernel(w, flag, out):
        if w.warp_in_block == 0:
            yield w.compute(100)
            yield w.prel(flag, 1, Scope.BLOCK)
            yield w.compute(300)
            yield w.prel(flag, 2, Scope.BLOCK)
        elif w.warp_in_block == 1:
            if loop:
                acq = w.pacq(flag, Scope.BLOCK)
                while True:
                    got = yield acq
                    if got >= 2:
                        break
            else:
                got = yield w.pacq(flag, Scope.BLOCK, at_least=2)
            yield w.st(out, got, mask=w.lane == 0)

    return kernel


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.value)
def test_a_stale_poll_calls_the_model_and_retries(model, monkeypatch):
    """A poll that reads a released value below the threshold makes the
    model call and retries at max(at, now + 1), exactly as the
    generator loop it replaces resumed."""
    runs = {}
    for loop in (False, True):
        system = GPUSystem(small_system(model, num_sms=1))
        flag = system.malloc(128)
        out = system.malloc(128)
        acquires = []
        model_obj = system.gpu.model
        pacq = model_obj.pacq

        def logged_pacq(sm, warp, addr, scope, value, now):
            at = pacq(sm, warp, addr, scope, value, now)
            acquires.append((value, now, at, warp))
            return at

        model_obj.pacq = logged_pacq
        poll = sm_module.SM._process_pacq
        retries = []

        def checked_poll(sm, warp, op, now):
            pure = poll(sm, warp, op, now)
            if acquires and acquires[-1][1] == now and acquires[-1][0] == 1:
                _, _, at, _ = acquires[-1]
                retries.append(warp.ready_time == max(at, now + 1))
                if op.at_least is not None:
                    assert warp.retry_op is op
            return pure

        monkeypatch.setattr(sm_module.SM, "_process_pacq", checked_poll)
        system.launch(stale_kernel(loop), grid_blocks=1, args=(flag.base, out.base))
        system.sync()
        monkeypatch.setattr(sm_module.SM, "_process_pacq", poll)
        assert system.read_word(out.base) == 2
        assert [value for value, *_ in acquires] == [1] * len(retries) + [2]
        assert retries and all(retries)
        runs[loop] = (system.now, system.stats.snapshot())
    assert runs[False] == runs[True]


def test_bridge_reads_from_every_acquire(compare):
    """Every litmus acquire reads from the release whose value it
    returned, with the skip and without."""

    def run():
        seen = []
        for program in corpus_programs():
            acquires = [e.eid for e in program.events() if e.kind is EventKind.PACQ]
            if not acquires:
                continue
            for model in MODELS:
                obs = simulate_program(program, model)
                assert set(acquires) <= set(obs.reads_from)
                seen.append(sorted(obs.reads_from.items()))
        return seen

    (shipped, _), (reference, _), _ = compare(run)
    assert shipped and shipped == reference
    assert all(prel is not None for run in shipped for _, prel in run)


# ----------------------------------------------------------------------
# The skip declines where the unskipped run would raise
# ----------------------------------------------------------------------
def wedged_kernel(w, flag, rounds):
    """Warp 0 computes *rounds* times, then idles; the others spin on a
    flag nobody releases."""
    if w.warp_in_block == 0:
        for _ in range(rounds):
            yield w.compute(50)
    else:
        yield from spin_pacq(w, flag, Scope.BLOCK)


def _raised(compare, make, exc, budgets):
    """Compare the error and the log of each budget's run; the budgets
    sweep past several skipped windows, so some fall inside one."""
    skipped = 0
    errors = []
    for budget in budgets:

        def run():
            system = make(budget)
            flag = system.malloc(128).base
            with pytest.raises(exc) as info:
                system.launch(wedged_kernel, grid_blocks=1, args=(flag, 400))
            return info.value

        (shipped, shipped_log), (reference, reference_log), count = compare(run)
        skipped += count
        assert shipped_log == reference_log, f"budget {budget}"
        errors.append((shipped, reference))
    assert skipped > 0
    return errors


class TestWatchdog:
    def test_livelock_error_matches_the_unskipped_run(self, compare):
        errors = _raised(
            compare,
            lambda budget: GPUSystem(
                small_system(ModelName.SBRP, num_sms=1), watchdog_events=budget
            ),
            LivelockError,
            range(100, 160, 3),
        )
        for shipped, reference in errors:
            assert (shipped.now, shipped.idle_events, shipped.queue_depths) == (
                reference.now,
                reference.idle_events,
                reference.queue_depths,
            )


class TestBudgetBoundary:
    def test_cycle_budget_error_matches_the_unskipped_run(self, compare):
        errors = _raised(
            compare,
            lambda budget: GPUSystem(
                small_system(ModelName.SBRP, num_sms=1), max_cycles=budget
            ),
            SimulationError,
            range(1000, 1500, 7),
        )
        for shipped, reference in errors:
            assert "cycle budget exceeded" in str(shipped)
            assert str(shipped) == str(reference)


def test_spin_backoff_config_is_replayed(compare):
    """A backoff longer than the L1 hit changes the spin delta the
    replay adds."""

    def run():
        config = small_system(ModelName.EPOCH, num_sms=2)
        config = replace(config, gpu=replace(config.gpu, spin_backoff_cycles=97))
        system = GPUSystem(config)
        app = build_app("reduction", blocks=4, per_thread=2)
        app.setup(system)
        app.run(system)
        system.sync()
        return system.now

    shipped, reference, skipped = compare(run)
    assert skipped > 0
    assert shipped == reference
