"""MemorySubsystem routing: far vs near paths, L2 behaviour."""

import pytest

from repro.common.config import GPUConfig, MemoryConfig, PMPlacement
from repro.metrics.registry import MetricsRegistry
from repro.memory.address_space import PM_BASE
from repro.memory.backing import BackingStore
from repro.memory.subsystem import MemorySubsystem


def make(placement=PMPlacement.FAR, **over):
    stats = MetricsRegistry()
    sub = MemorySubsystem(
        MemoryConfig(placement=placement, **over),
        GPUConfig(),
        BackingStore(),
        stats,
    )
    return sub, stats


VOL = 0
PM = PM_BASE


class TestReadPath:
    def test_l2_hit_is_fast(self):
        sub, _ = make()
        first = sub.fetch_line(0, VOL, is_pm=False)
        second = sub.fetch_line(first, VOL, is_pm=False)
        assert second - first == sub.gpu.l2_latency

    def test_far_pm_read_crosses_pcie_twice(self):
        sub, stats = make(PMPlacement.FAR)
        done = sub.fetch_line(0, PM, is_pm=True)
        # l2 + pcie down + nvm read + pcie up: > 3 link latencies.
        assert done > 3 * sub.config.pcie_latency
        assert stats.get("pcie.transfers") == 1
        assert stats.get("pcie_up.transfers") == 1

    def test_near_pm_read_skips_pcie(self):
        sub, stats = make(PMPlacement.NEAR)
        done = sub.fetch_line(0, PM, is_pm=True)
        assert stats.get("pcie.transfers") == 0
        assert done < 2 * sub.config.pcie_latency + sub.config.nvm_latency

    def test_near_faster_than_far(self):
        far, _ = make(PMPlacement.FAR)
        near, _ = make(PMPlacement.NEAR)
        assert near.fetch_line(0, PM, True) < far.fetch_line(0, PM, True)

    def test_volatile_read_uses_gddr(self):
        sub, stats = make()
        sub.fetch_line(0, VOL, is_pm=False)
        assert stats.get("gddr0.transfers") + stats.get("gddr1.transfers") == 1


class TestPersistPath:
    def test_near_persist_ack_adds_return_hop(self):
        sub, _ = make(PMPlacement.NEAR)
        ack = sub.persist_line(0, 0, PM, {PM: 1})
        assert ack.ack_time == ack.accept_time + sub.gpu.l2_latency

    def test_far_persist_ack_crosses_pcie_back(self):
        sub, _ = make(PMPlacement.FAR)
        ack = sub.persist_line(0, 0, PM, {PM: 1})
        assert ack.ack_time == ack.accept_time + sub.config.pcie_latency

    def test_persist_records_logged_in_order(self):
        sub, _ = make()
        for i in range(5):
            sub.persist_line(float(i), 0, PM, {PM: i})
        records = sub.persist_log.records()
        assert [r.seq for r in records] == [1, 2, 3, 4, 5]

    def test_partition_routing_spreads_lines(self):
        sub, stats = make(PMPlacement.NEAR)
        sub.persist_line(0, 0, PM, {PM: 1})
        sub.persist_line(0, 0, PM + 128, {PM + 128: 1})
        assert stats.get("nvm0.writes") == 1
        assert stats.get("nvm1.writes") == 1


class TestBandwidthScaling:
    def test_nvm_bw_scale_changes_drain_rate(self):
        slow, _ = make(PMPlacement.NEAR, nvm_bw_scale=0.1, wpq_entries=1)
        fast, _ = make(PMPlacement.NEAR, nvm_bw_scale=2.0, wpq_entries=1)
        for i in range(8):
            a_slow = slow.persist_line(0, 0, PM, {PM: i})
            a_fast = fast.persist_line(0, 0, PM, {PM: i})
        assert a_fast.accept_time < a_slow.accept_time
