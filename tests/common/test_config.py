"""Configuration defaults pin Table 1; validation catches bad setups."""

from dataclasses import replace

import pytest

from repro import GPUSystem
from repro.common.config import (
    DrainPolicy,
    GPUConfig,
    MemoryConfig,
    ModelName,
    PMPlacement,
    SBRPConfig,
    Scope,
    SystemConfig,
    paper_system,
    scale_memory_to_sms,
    small_system,
)
from repro.common.errors import ConfigError


class TestTable1Defaults:
    def test_gpu_geometry(self):
        gpu = GPUConfig()
        assert gpu.num_sms == 30
        assert gpu.threads_per_block == 1024
        assert gpu.l1_size == 64 * 1024
        assert gpu.l2_size == 3 * 1024 * 1024
        assert gpu.max_warps_per_sm == 32

    def test_memory_parameters(self):
        mem = MemoryConfig()
        assert mem.gddr_bw_gbps == 336.0
        assert mem.nvm_read_bw_gbps == 84.0
        assert mem.nvm_write_bw_gbps == 42.0
        assert mem.pcie_bw_gbps == 28.0
        assert mem.gddr_latency_ns == 100.0
        assert mem.nvm_latency_ns == 300.0
        assert mem.pcie_latency_ns == 300.0

    def test_window_default(self):
        assert SBRPConfig().window == 6

    def test_pb_covers_half_the_l1(self):
        gpu = GPUConfig()
        assert SBRPConfig().pb_entries(gpu) == gpu.l1_lines // 2


class TestValidation:
    def test_block_must_fit_in_sm(self):
        gpu = GPUConfig(threads_per_block=2048, max_warps_per_sm=32)
        with pytest.raises(ConfigError):
            gpu.validate()

    def test_block_must_be_warp_multiple(self):
        with pytest.raises(ConfigError):
            GPUConfig(threads_per_block=100).validate()

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("line_size", 0, "line_size must be positive"),
            ("l1_size", 0, "l1_size must be positive"),
            ("l1_assoc", 0, "l1_assoc must be positive"),
            ("l2_size", 0, "l2_size must be positive"),
            ("l2_size", 512, "L2 size must divide into sets of 8 full ways"),
        ],
    )
    def test_bad_cache_geometry_fails_construction(self, field, value, match):
        gpu = replace(small_system().gpu, **{field: value})
        with pytest.raises(ConfigError, match=match):
            GPUSystem(SystemConfig(gpu=gpu))

    def test_pb_coverage_bounds(self):
        with pytest.raises(ConfigError):
            SBRPConfig(pb_coverage=0.0).validate()
        with pytest.raises(ConfigError):
            SBRPConfig(window=0).validate()


class TestScopes:
    def test_scope_inclusion_order(self):
        assert Scope.DEVICE.includes(Scope.BLOCK)
        assert Scope.SYSTEM.includes(Scope.DEVICE)
        assert not Scope.BLOCK.includes(Scope.DEVICE)


class TestLabels:
    def test_labels_match_paper_names(self):
        assert paper_system(ModelName.SBRP, PMPlacement.NEAR).label == "SBRP-near"
        assert paper_system(ModelName.EPOCH, PMPlacement.FAR).label == "EPOCH-far"
        assert paper_system(ModelName.GPM).label == "GPM"


class TestSmallSystem:
    def test_bandwidth_scales_with_sms(self):
        scaled = scale_memory_to_sms(MemoryConfig(), 3)
        assert scaled.nvm_write_bw_gbps == pytest.approx(4.2)
        assert scaled.pcie_bw_gbps == pytest.approx(2.8)

    def test_small_system_is_valid(self):
        config = small_system(ModelName.SBRP)
        assert config.gpu.num_sms == 4
        assert config.gpu.warps_per_block <= config.gpu.max_warps_per_sm

    def test_with_model_and_placement(self):
        base = small_system(ModelName.EPOCH)
        assert base.with_model(ModelName.SBRP).model is ModelName.SBRP
        near = base.with_placement(PMPlacement.NEAR)
        assert near.memory.placement is PMPlacement.NEAR
