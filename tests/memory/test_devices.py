"""Device timing models: bandwidth pipes and the ADR WPQ."""

import pytest

from repro.metrics.registry import MetricsRegistry
from repro.memory.devices import BandwidthChannel, NVMController


class TestBandwidthChannel:
    def test_single_transfer_latency_plus_occupancy(self):
        chan = BandwidthChannel("x", latency=100, bytes_per_cycle=10)
        done = chan.transfer(0, 50)
        assert done == pytest.approx(0 + 5 + 100)

    def test_back_to_back_transfers_pipeline(self):
        chan = BandwidthChannel("x", latency=100, bytes_per_cycle=10)
        first = chan.transfer(0, 100)  # occupies [0, 10)
        second = chan.transfer(0, 100)  # queues behind: [10, 20)
        assert first == pytest.approx(110)
        assert second == pytest.approx(120)

    def test_idle_gap_resets_queueing(self):
        chan = BandwidthChannel("x", latency=10, bytes_per_cycle=10)
        chan.transfer(0, 100)
        late = chan.transfer(1000, 100)
        assert late == pytest.approx(1020)

    def test_stats_recorded(self):
        stats = MetricsRegistry()
        chan = BandwidthChannel("pipe", 10, 10, stats)
        chan.transfer(0, 64)
        assert stats.get("pipe.bytes") == 64
        assert stats.get("pipe.transfers") == 1

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            BandwidthChannel("x", 10, 0)


class TestNVMController:
    def make(self, wpq=4) -> NVMController:
        return NVMController(
            "nvm", read_bytes_per_cycle=20, write_bytes_per_cycle=10,
            latency=50, wpq_entries=wpq,
        )

    def test_write_accepts_immediately_with_free_wpq(self):
        nvm = self.make()
        assert nvm.write(0, 100) == pytest.approx(0)

    def test_wpq_backpressure_delays_acceptance(self):
        nvm = self.make(wpq=2)
        # Each write drains in 10 cycles; two slots fill instantly.
        assert nvm.write(0, 100) == 0
        assert nvm.write(0, 100) == 0
        # Third write waits for the first to drain (t=10).
        assert nvm.write(0, 100) == pytest.approx(10)
        # Fourth waits for the second (t=20).
        assert nvm.write(0, 100) == pytest.approx(20)

    def test_acceptance_is_monotonic(self):
        nvm = self.make(wpq=2)
        accepts = [nvm.write(i, 100) for i in range(20)]
        assert accepts == sorted(accepts)

    def test_wpq_drains_over_time(self):
        nvm = self.make(wpq=1)
        nvm.write(0, 100)
        # After the drain completes, acceptance is immediate again.
        assert nvm.write(500, 100) == pytest.approx(500)

    def test_read_uses_read_bandwidth(self):
        nvm = self.make()
        done = nvm.read(0, 200)
        assert done == pytest.approx(0 + 10 + 50)

    def test_reset_clears_state(self):
        nvm = self.make(wpq=1)
        nvm.write(0, 1000)
        nvm.reset()
        assert nvm.write(0, 100) == pytest.approx(0)
