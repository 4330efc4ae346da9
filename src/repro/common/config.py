"""Configuration dataclasses for the simulated system.

Defaults follow Table 1 of the paper:

=================  =======================================
# of SMs           30
Clock speed        1365 MHz
L1 cache           64 KB/SM
L2 cache           3 MB
GDDR               336 GB/s, 100 ns
NVM                84 GB/s read / 42 GB/s write, 300 ns
PCIe               28 GB/s, 300 ns
Window size        6
Threads/block      1024
=================  =======================================

Tests and examples use :func:`small_system` which shrinks the GPU (fewer
SMs, smaller caches) while preserving every ratio that matters for the
persistency-model comparison.
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, Dict, Optional

from repro.common.errors import ConfigError
from repro.common.units import ns_to_cycles


def stable_hash(obj: Any) -> str:
    """SHA-256 of the canonical JSON encoding of *obj*.

    Canonical means sorted keys, no whitespace, and enums collapsed to
    their values — so the same logical object always hashes the same,
    across processes and interpreter runs (unlike ``hash()``).
    """

    def _plain(value: Any) -> Any:
        if isinstance(value, enum.Enum):
            return value.value
        if isinstance(value, dict):
            return {k: _plain(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [_plain(v) for v in value]
        return value

    text = json.dumps(_plain(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Scope(enum.Enum):
    """Synchronization scopes of the CUDA hierarchy (Section 2)."""

    BLOCK = "block"
    DEVICE = "device"
    SYSTEM = "system"

    def includes(self, other: "Scope") -> bool:
        """True when this scope is at least as wide as *other*."""
        order = {Scope.BLOCK: 0, Scope.DEVICE: 1, Scope.SYSTEM: 2}
        return order[self] >= order[other]


class ModelName(enum.Enum):
    """The three persistency models evaluated in Section 7."""

    #: GPM's implicit model: a system-scope fence acting as an epoch
    #: barrier for *both* volatile and persistent writes (unbuffered).
    GPM = "gpm"
    #: Enhanced epoch model: the barrier only affects writes to PM.
    EPOCH = "epoch"
    #: The paper's contribution: Scoped Buffered Release Persistency.
    SBRP = "sbrp"


class PMPlacement(enum.Enum):
    """Where the NVM sits relative to the GPU (Section 3)."""

    #: NVM attached to the CPU, reached over PCIe (Figure 1a).
    FAR = "far"
    #: NVM on-board the GPU next to GDDR (Figure 1b).
    NEAR = "near"


class DrainPolicy(enum.Enum):
    """When SBRP's persist buffer flushes dirty PM lines (Section 6.2)."""

    #: Flush as soon as ordering constraints allow (CPU-style).
    EAGER = "eager"
    #: Flush only at ordering operations or under capacity pressure.
    LAZY = "lazy"
    #: Keep a fixed number of persists outstanding (the paper's default).
    WINDOW = "window"


#: Ways per set of the shared L2 (not a config field: Table 1 fixes it).
L2_ASSOC = 8


@dataclass(frozen=True)
class GPUConfig:
    """Core and cache geometry of the simulated GPU."""

    num_sms: int = 30
    warp_size: int = 32
    max_warps_per_sm: int = 32
    threads_per_block: int = 1024
    line_size: int = 128
    l1_size: int = 64 * 1024
    l1_assoc: int = 4
    l2_size: int = 3 * 1024 * 1024
    l1_hit_latency: int = 28
    l2_latency: int = 190
    issue_width: int = 1
    spin_backoff_cycles: int = 40

    @property
    def warps_per_block(self) -> int:
        return self.threads_per_block // self.warp_size

    @property
    def l1_lines(self) -> int:
        return self.l1_size // self.line_size

    def validate(self) -> None:
        for name in ("line_size", "l1_size", "l1_assoc", "l2_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        if self.threads_per_block % self.warp_size:
            raise ConfigError("threads_per_block must be a warp multiple")
        if self.warps_per_block > self.max_warps_per_sm:
            raise ConfigError(
                "a threadblock must fit in one SM "
                f"({self.warps_per_block} warps > {self.max_warps_per_sm})"
            )
        if self.l1_size % (self.line_size * self.l1_assoc):
            raise ConfigError("L1 size must divide into sets of full ways")
        if self.l2_size % (self.line_size * L2_ASSOC):
            raise ConfigError(
                f"L2 size must divide into sets of {L2_ASSOC} full ways"
            )


@dataclass(frozen=True)
class MemoryConfig:
    """Latency/bandwidth parameters of the memory system (Table 1)."""

    placement: PMPlacement = PMPlacement.FAR
    gddr_bw_gbps: float = 336.0
    gddr_latency_ns: float = 100.0
    nvm_read_bw_gbps: float = 84.0
    nvm_write_bw_gbps: float = 42.0
    nvm_latency_ns: float = 300.0
    pcie_bw_gbps: float = 28.0
    pcie_latency_ns: float = 300.0
    #: Multiplier applied to both NVM bandwidths (Figure 10b sweeps this).
    nvm_bw_scale: float = 1.0
    #: ADR write-pending-queue entries per memory controller.
    wpq_entries: int = 16
    num_partitions: int = 2

    @property
    def gddr_latency(self) -> int:
        return ns_to_cycles(self.gddr_latency_ns)

    @property
    def nvm_latency(self) -> int:
        return ns_to_cycles(self.nvm_latency_ns)

    @property
    def pcie_latency(self) -> int:
        return ns_to_cycles(self.pcie_latency_ns)

    def validate(self) -> None:
        if self.nvm_bw_scale <= 0:
            raise ConfigError("nvm_bw_scale must be positive")
        if self.wpq_entries < 1:
            raise ConfigError("WPQ needs at least one entry")


@dataclass(frozen=True)
class SBRPConfig:
    """Knobs of the SBRP hardware implementation (Section 6)."""

    #: Persist-buffer entries as a fraction of L1 lines (Figure 10a).
    pb_coverage: float = 0.5
    #: Outstanding-persist target of the window policy (Figure 10c).
    window: int = 6
    drain_policy: DrainPolicy = DrainPolicy.WINDOW
    #: Treat every block-scope pAcq/pRel as device scope.  Used by the
    #: Figure 7 breakdown to isolate how much of SBRP's win comes from
    #: scopes versus buffering.
    demote_block_scope: bool = False

    def pb_entries(self, gpu: GPUConfig) -> int:
        return max(1, int(gpu.l1_lines * self.pb_coverage))

    def validate(self) -> None:
        if not 0 < self.pb_coverage <= 1:
            raise ConfigError("pb_coverage must be in (0, 1]")
        if self.window < 1:
            raise ConfigError("window must be at least 1")


@dataclass(frozen=True)
class SystemConfig:
    """Complete configuration of one simulated scenario."""

    model: ModelName = ModelName.SBRP
    gpu: GPUConfig = field(default_factory=GPUConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    sbrp: SBRPConfig = field(default_factory=SBRPConfig)

    def validate(self) -> "SystemConfig":
        self.gpu.validate()
        self.memory.validate()
        self.sbrp.validate()
        return self

    @property
    def label(self) -> str:
        """Paper-style scenario name, e.g. ``SBRP-near`` or ``GPM``."""
        if self.model is ModelName.GPM:
            return "GPM"
        suffix = "near" if self.memory.placement is PMPlacement.NEAR else "far"
        return f"{self.model.value.upper()}-{suffix}"

    def with_model(self, model: ModelName) -> "SystemConfig":
        return replace(self, model=model)

    def with_placement(self, placement: PMPlacement) -> "SystemConfig":
        return replace(self, memory=replace(self.memory, placement=placement))

    # ------------------------------------------------------------------
    # serialization / content addressing
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON form: nested dicts with enums as their values."""
        raw = asdict(self)
        raw["model"] = self.model.value
        raw["memory"]["placement"] = self.memory.placement.value
        raw["sbrp"]["drain_policy"] = self.sbrp.drain_policy.value
        return raw

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "SystemConfig":
        """Rebuild a validated config from :meth:`to_dict` output.

        Only known keys are read at every level, so payloads that still
        carry a retired field (the old degraded-mode settings, the
        timing-core ``engine`` switch, ``seed``, the eADR switch under
        ``memory``) keep loading."""
        memory = _known(MemoryConfig, data["memory"])
        memory["placement"] = PMPlacement(memory["placement"])
        sbrp = _known(SBRPConfig, data["sbrp"])
        sbrp["drain_policy"] = DrainPolicy(sbrp["drain_policy"])
        return SystemConfig(
            model=ModelName(data["model"]),
            gpu=GPUConfig(**_known(GPUConfig, data["gpu"])),
            memory=MemoryConfig(**memory),
            sbrp=SBRPConfig(**sbrp),
        ).validate()


def _known(cls: type, data: Dict[str, Any]) -> Dict[str, Any]:
    """The entries of *data* that name a field of dataclass *cls*."""
    names = {f.name for f in fields(cls)}
    return {k: v for k, v in data.items() if k in names}


def paper_system(
    model: ModelName = ModelName.SBRP,
    placement: PMPlacement = PMPlacement.FAR,
    **memory_overrides: float,
) -> SystemConfig:
    """The full Table 1 configuration."""
    memory = MemoryConfig(placement=placement, **memory_overrides)
    return SystemConfig(model=model, memory=memory).validate()


def scale_memory_to_sms(memory: MemoryConfig, num_sms: int) -> MemoryConfig:
    """Scale device bandwidths so per-SM shares match the 30-SM machine.

    A shrunk GPU with full Table 1 bandwidths would give each SM an
    outsized share of the NVM/PCIe pipes and distort every model
    comparison; scaling preserves the paper's compute-to-memory balance.
    """
    factor = num_sms / GPUConfig().num_sms
    return replace(
        memory,
        gddr_bw_gbps=memory.gddr_bw_gbps * factor,
        nvm_read_bw_gbps=memory.nvm_read_bw_gbps * factor,
        nvm_write_bw_gbps=memory.nvm_write_bw_gbps * factor,
        pcie_bw_gbps=memory.pcie_bw_gbps * factor,
    )


def small_system(
    model: ModelName = ModelName.SBRP,
    placement: PMPlacement = PMPlacement.FAR,
    num_sms: int = 4,
    threads_per_block: int = 128,
    l1_size: int = 16 * 1024,
    memory: Optional[MemoryConfig] = None,
    sbrp: Optional[SBRPConfig] = None,
    scale_bandwidth: bool = True,
) -> SystemConfig:
    """A shrunk configuration for fast tests and examples.

    The L1, SM count, block size and memory bandwidths shrink together so
    that occupancy, cache pressure and the compute-to-memory balance stay
    representative of the full Table 1 machine.
    """
    gpu = GPUConfig(
        num_sms=num_sms,
        threads_per_block=threads_per_block,
        max_warps_per_sm=max(4, threads_per_block // 32),
        l1_size=l1_size,
        l2_size=256 * 1024,
    )
    mem = memory if memory is not None else MemoryConfig(placement=placement)
    if scale_bandwidth:
        mem = scale_memory_to_sms(mem, num_sms)
    return SystemConfig(
        model=model,
        gpu=gpu,
        memory=mem,
        sbrp=sbrp or SBRPConfig(),
    ).validate()
