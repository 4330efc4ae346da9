"""GPUSystem facade: allocation, host IO, crash/reboot lifecycle."""

import numpy as np
import pytest

from repro import CrashImage, GPUSystem, ModelName, small_system
from repro.common.errors import MemoryError_, SimulationError


@pytest.fixture
def system():
    return GPUSystem(small_system(ModelName.SBRP))


class TestAllocation:
    def test_pm_create_and_open(self, system):
        region = system.pm_create("r", 1024)
        assert system.pm_exists("r")
        assert system.pm_open("r").base == region.base

    def test_malloc_is_volatile(self, system):
        from repro.memory.address_space import is_pm_addr

        region = system.malloc(1024)
        assert not is_pm_addr(region.base)


class TestHostIO:
    def test_host_write_words_roundtrip(self, system):
        region = system.pm_create("r", 1024)
        values = np.arange(10) * 7
        system.host_write_words(region, values)
        assert (system.read_words(region, 10) == values).all()

    def test_host_pm_writes_are_durable(self, system):
        region = system.pm_create("r", 1024)
        system.host_write_words(region, [42])
        assert system.durable_words(region, 1)[0] == 42

    def test_host_fill(self, system):
        region = system.pm_create("r", 256)
        system.host_fill(region, 9)
        assert (system.read_words(region) == 9).all()

    @pytest.mark.parametrize("reader", ["read_words", "durable_words"])
    def test_word_reads_past_the_region_name_the_first_bad_word(
        self, system, reader
    ):
        region = system.pm_create("r", 256)  # 64 words
        read = getattr(system, reader)
        assert read(region, 64).dtype == np.int64
        assert len(read(region, 0)) == 0
        with pytest.raises(MemoryError_, match="word 64 out of bounds"):
            read(region, 70)


class TestCrashReboot:
    def run_writer(self, system):
        region = system.pm_create("data", 4096)

        def kernel(w, region):
            yield w.st(region.base + 4 * w.tid, w.tid + 1)

        system.launch(kernel, 1, args=(region,))
        system.sync()
        return region

    def test_crash_now_and_reboot(self, system):
        region = self.run_writer(system)
        image = system.crash()
        assert isinstance(image, CrashImage)
        rebooted = GPUSystem.reboot(system, image)
        reopened = rebooted.pm_open("data")
        assert (rebooted.read_words(reopened, 32) == np.arange(32) + 1).all()

    def test_crash_in_the_future_rejected(self, system):
        self.run_writer(system)
        with pytest.raises(SimulationError):
            system.crash(at=system.now + 1)

    def test_crash_at_time_zero_only_has_host_data(self, system):
        region = system.pm_create("init", 256)
        system.host_write_words(region, [5])
        self.run_writer(system)
        image = system.crash(at=0.0)
        assert image.pm.get(region.base) == 5
        data = system.pm_open("data")
        assert data.base not in image.pm

    def test_rebooted_system_can_run_kernels(self, system):
        self.run_writer(system)
        rebooted = GPUSystem.reboot(system, system.crash())
        region = rebooted.pm_open("data")

        def doubler(w, region):
            vals = yield w.ld(region.base + 4 * w.tid)
            yield w.st(region.base + 4 * w.tid, vals * 2)

        rebooted.launch(doubler, 1, args=(region,))
        rebooted.sync()
        assert (rebooted.read_words(region, 32) == (np.arange(32) + 1) * 2).all()

    def test_volatile_data_does_not_survive(self, system):
        vol = system.malloc(256)
        system.host_write_words(vol, [123])
        rebooted = GPUSystem.reboot(system, system.crash())
        assert rebooted.read_word(vol.base) == 0


class TestBookkeeping:
    def test_kernel_results_accumulate(self, system):
        def kernel(w):
            yield w.compute(10)

        system.launch(kernel, 1)
        system.launch(kernel, 2)
        assert len(system.kernel_results) == 2
        assert system.total_cycles() > 0

    def test_stat_accessor(self, system):
        def kernel(w):
            yield w.compute(1)

        system.launch(kernel, 1)
        assert system.stat("kernel.launches") == 1
        assert system.stat("missing", -1) == -1

    def test_repr_mentions_label(self, system):
        assert "SBRP-far" in repr(system)
