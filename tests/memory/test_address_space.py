"""Address space, backing images, namespace table, persist log."""

import pytest

from repro.common.config import GPUConfig, MemoryConfig
from repro.common.errors import MemoryError_
from repro.metrics.registry import MetricsRegistry
from repro.memory.address_space import PM_BASE, AddressSpace, is_pm_addr
from repro.memory.backing import BackingStore
from repro.memory.namespace import NamespaceTable, PMPool
from repro.memory.subsystem import MemorySubsystem


class TestAddressSpace:
    def test_volatile_below_pm_region(self):
        space = AddressSpace()
        vol = space.alloc(256)
        pm = space.alloc(256, persistent=True)
        assert vol.base < PM_BASE <= pm.base
        assert not is_pm_addr(vol.base)
        assert is_pm_addr(pm.base)

    def test_alignment(self):
        space = AddressSpace(alignment=128)
        a = space.alloc(100)
        b = space.alloc(100)
        assert b.base - a.base == 128

    def test_named_allocation_lookup(self):
        space = AddressSpace()
        region = space.alloc(64, persistent=True, name="tbl")
        assert space.lookup_name("tbl") == region

    def test_duplicate_name_rejected(self):
        space = AddressSpace()
        space.alloc(64, persistent=True, name="x")
        with pytest.raises(MemoryError_):
            space.alloc(64, persistent=True, name="x")

    def test_volatile_names_rejected(self):
        with pytest.raises(MemoryError_):
            AddressSpace().alloc(64, persistent=False, name="v")

    def test_word_bounds(self):
        region = AddressSpace().alloc(16, persistent=True)
        assert region.word(3) == region.base + 12
        with pytest.raises(MemoryError_):
            region.word(region.size // 4 + 10)

    def test_free_and_region_of(self):
        space = AddressSpace()
        region = space.alloc(64, persistent=True, name="r")
        assert space.region_of(region.base + 4) == region
        space.free(region)
        assert space.region_of(region.base) is None


class TestBackingStore:
    def test_unwritten_reads_zero(self):
        assert BackingStore().read(PM_BASE) == 0

    def test_visible_vs_durable_separation(self):
        backing = BackingStore()
        backing.write(PM_BASE, 42)
        assert backing.read(PM_BASE) == 42
        assert backing.durable_read(PM_BASE) == 0
        backing.persist({PM_BASE: 42})
        assert backing.durable_read(PM_BASE) == 42

    def test_persist_rejects_volatile(self):
        with pytest.raises(ValueError):
            BackingStore().persist({128: 1})

    def test_unaligned_rejected(self):
        with pytest.raises(ValueError):
            BackingStore().read(PM_BASE + 1)

    def test_load_pm_image_resets_visible(self):
        backing = BackingStore()
        backing.write(100, 5)  # volatile
        backing.load_pm_image({PM_BASE: 9})
        assert backing.read(PM_BASE) == 9
        assert backing.read(100) == 0  # volatile lost


class TestNamespace:
    def test_create_open_roundtrip(self):
        space = AddressSpace()
        table = NamespaceTable(space)
        region = table.create("kv", 256)
        reopened = table.open("kv")
        assert reopened.base == region.base and reopened.size == region.size

    def test_restore_survives_power_cycle(self):
        space = AddressSpace()
        table = NamespaceTable(space)
        region = table.create("kv", 256)
        snapshot = table.export()

        space2 = AddressSpace()
        table2 = NamespaceTable(space2)
        table2.restore(snapshot, space2)
        assert table2.open("kv").base == region.base
        # New allocations must not alias the restored region.
        fresh = space2.alloc(256, persistent=True)
        assert fresh.base >= region.end

    def test_delete(self):
        table = NamespaceTable(AddressSpace())
        table.create("x", 64)
        table.delete("x")
        with pytest.raises(MemoryError_):
            table.open("x")

    def test_pool_open_close(self):
        table = NamespaceTable(AddressSpace())
        pool = PMPool(table)
        pool.create("data", 128)
        assert pool.is_open("data")
        pool.close("data")
        with pytest.raises(MemoryError_):
            pool.get("data")
        pool.open("data")
        assert pool.get("data").size == 128


class TestPersistLog:
    def make(self) -> MemorySubsystem:
        return MemorySubsystem(
            MemoryConfig(), GPUConfig(), BackingStore(), MetricsRegistry()
        )

    def test_crash_image_respects_acceptance_time(self):
        sub = self.make()
        addr = PM_BASE
        ack1 = sub.persist_line(0, 0, addr, {addr: 1})
        ack2 = sub.persist_line(ack1.accept_time + 1000, 0, addr, {addr: 2})
        before = sub.crash_image(ack1.accept_time)
        after = sub.crash_image(ack2.accept_time)
        assert before[addr] == 1
        assert after[addr] == 2

    def test_crash_image_includes_host_initialized_durable(self):
        sub = self.make()
        sub.backing.durable[PM_BASE] = 7
        assert sub.crash_image(0.0)[PM_BASE] == 7
