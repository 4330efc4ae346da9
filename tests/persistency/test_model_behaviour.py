"""Model-specific behavioural differences (the mechanisms behind the
figures): invalidation flavours, buffering, EDM stalls, drain policies."""

import numpy as np
import pytest

from repro import (
    DrainPolicy,
    GPUSystem,
    ModelName,
    SBRPConfig,
    Scope,
    small_system,
)

from conftest import run_to_end


def logging_kernel(w, log, data):
    yield w.st(log.base + 4 * w.tid, 1, mask=w.lane >= 0)
    yield w.ofence()
    yield w.st(data.base + 4 * w.tid, 2)
    yield w.ofence()
    yield w.st(log.base + 4 * w.tid, 0)
    vals = yield w.ld(data.base + 4 * w.tid)


def run_logging(model, **sbrp_kwargs):
    config = small_system(model, sbrp=SBRPConfig(**sbrp_kwargs) if sbrp_kwargs else None)
    system = GPUSystem(config)
    log = system.pm_create("log", 8192)
    data = system.pm_create("data", 8192)
    result = run_to_end(system, logging_kernel, blocks=2, args=(log, data))
    return system, result


class TestInvalidation:
    def test_epoch_invalidates_pm_lines_at_barrier(self):
        system, _ = run_logging(ModelName.EPOCH)
        # The final data load re-misses because the barrier invalidated.
        assert system.stat("l1.read_miss_pm") > 0
        assert system.stat("l1.read_hit_pm") == 0

    def test_sbrp_retains_pm_lines_across_ofence(self):
        system, _ = run_logging(ModelName.SBRP)
        assert system.stat("l1.read_hit_pm") > 0

    def test_gpm_barrier_count_matches_epoch(self):
        gpm, _ = run_logging(ModelName.GPM)
        epoch, _ = run_logging(ModelName.EPOCH)
        assert gpm.stat("epoch.barriers") == epoch.stat("epoch.barriers")

    def test_gpm_invalidates_more_lines_than_epoch(self):
        gpm, _ = run_logging(ModelName.GPM)
        epoch, _ = run_logging(ModelName.EPOCH)
        assert gpm.stat("epoch.lines_invalidated") >= epoch.stat(
            "epoch.lines_invalidated"
        )


class TestBuffering:
    def test_sbrp_ofence_does_not_stall(self):
        """An oFence is buffered: the kernel retires long before the
        persists are durable (the epoch barrier waits in-kernel)."""
        sbrp_sys, sbrp = run_logging(ModelName.SBRP)
        epoch_sys, epoch = run_logging(ModelName.EPOCH)
        assert sbrp.cycles < epoch.cycles

    def test_sbrp_edm_stall_on_same_line_rewrite(self):
        """A store that rewrites a line whose persist entry is delayed
        behind the warp's own fence must stall in the EDM."""
        system = GPUSystem(small_system(ModelName.SBRP))
        a = system.pm_create("a", 4096)
        b = system.pm_create("b", 4096)

        def kernel(w, a, b):
            # First persist flushes immediately; the fence then delays
            # b's entry (FSM) until a's ack, so the rewrite of b finds a
            # live entry behind an ordering point -> EDM stall.
            yield w.st(a.base + 4 * w.tid, 1)
            yield w.ofence()
            yield w.st(b.base + 4 * w.tid, 2)
            yield w.ofence()
            yield w.st(b.base + 4 * w.tid, 3)

        run_to_end(system, kernel, blocks=1, args=(a, b))
        assert system.stat("sbrp.edm_stalls") > 0
        # And the rewrite's ordering held: final durable value is 3.
        image = system.gpu.subsystem.crash_image(system.now)
        assert image[b.word(0)] == 3

    def test_window_policy_paces_drain(self):
        for policy in (DrainPolicy.WINDOW, DrainPolicy.EAGER, DrainPolicy.LAZY):
            system, _ = run_logging(ModelName.SBRP, drain_policy=policy)
            # All policies must drain everything by sync().
            assert (
                system.stat("sbrp.persist_entries") > 0
            ), policy
            final = system.gpu.subsystem.crash_image(system.now)
            # commit cleared the log everywhere
            log = system.pm_open("log")
            assert all(final.get(log.word(i), 0) == 0 for i in range(64))


class TestScopeDemotion:
    def test_demoted_block_release_behaves_like_device(self):
        config = small_system(
            ModelName.SBRP, sbrp=SBRPConfig(demote_block_scope=True)
        )
        system = GPUSystem(config)
        pm = system.pm_create("p", 4096)
        flag = system.malloc(128)

        def kernel(w, pm_addr, flag):
            if w.warp_in_block == 0:
                yield w.st(pm_addr, 1, mask=w.lane == 0)
                yield w.prel(flag, 1, Scope.BLOCK)

        run_to_end(system, kernel, args=(pm.base, flag.base))
        # Demotion makes the release device-scoped: it stalls and drains.
        assert system.stat("sbrp.prel_device") == 1
        assert system.stat("sbrp.prel_block") == 0


class TestPBCapacity:
    def test_tiny_pb_forces_stalls_but_stays_correct(self):
        config = small_system(ModelName.SBRP, sbrp=SBRPConfig(pb_coverage=0.05))
        system = GPUSystem(config)
        data = system.pm_create("d", 64 * 1024)

        def kernel(w, data):
            for i in range(8):
                addr = data.base + 4 * (w.tid + i * w.nthreads)
                yield w.st(addr, i + 1)

        run_to_end(system, kernel, blocks=2, args=(data,))
        image = system.gpu.subsystem.crash_image(system.now)
        n = 2 * system.config.gpu.threads_per_block
        for i in range(8):
            assert image.get(data.word(i * n), 0) == i + 1
