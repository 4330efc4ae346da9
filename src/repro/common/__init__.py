"""Shared infrastructure: units, configuration, bitmasks, statistics.

Everything in this subpackage is substrate-agnostic plumbing used by the
memory system, the GPU model, and the persistency models.
"""

from repro.common.bitmask import WarpMask
from repro.common.config import (
    DrainPolicy,
    GPUConfig,
    MemoryConfig,
    ModelName,
    PMPlacement,
    SBRPConfig,
    Scope,
    SystemConfig,
    stable_hash,
)
from repro.common.errors import (
    ConfigError,
    PersistencyError,
    ReproError,
    SimulationError,
)
from repro.common.units import (
    CLOCK_MHZ,
    bytes_per_cycle,
    cycles_to_ns,
    gbps_to_bytes_per_cycle,
    ns_to_cycles,
)

__all__ = [
    "CLOCK_MHZ",
    "ConfigError",
    "DrainPolicy",
    "GPUConfig",
    "MemoryConfig",
    "ModelName",
    "PMPlacement",
    "PersistencyError",
    "ReproError",
    "SBRPConfig",
    "Scope",
    "SimulationError",
    "SystemConfig",
    "WarpMask",
    "bytes_per_cycle",
    "cycles_to_ns",
    "gbps_to_bytes_per_cycle",
    "ns_to_cycles",
    "stable_hash",
]
