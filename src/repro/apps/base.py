"""Common protocol for the evaluation applications.

An :class:`App` owns a workload description and knows how to:

* ``attach(system, pm)`` — declare its memory layout, once: map each PM
  region through ``pm(name, size)``, allocate volatile buffers with
  ``system.malloc`` and upload their (deterministic) contents.
  ``setup(system)`` attaches with ``system.pm_create`` and then calls
  ``initialize(system)`` to write the initial PM contents;
  ``reopen(system)`` attaches to a rebooted machine with
  ``system.pm_open``, so every region lands at the address it had;
* ``run(system)`` — launch the crash-free kernels (the timed part),
* ``recover(system)`` — launch the recovery kernel against a rebooted
  system whose PM holds a crash image,
* ``check(system)`` — raise :class:`RecoveryError` unless the PM state
  satisfies the app's consistency invariants,
* ``expected()`` — the CPU reference answer for full-completion checks.

``scoped_pmo`` and ``recovery_style`` mirror Table 2 so tests can assert
the reproduction covers the same design space as the paper.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, List

from repro.common.errors import RecoveryError
from repro.gpu.device import KernelResult
from repro.memory.address_space import Allocation
from repro.system import GPUSystem

#: How :meth:`App.attach` maps a named PM region: ``pm(name, size)``.
PMMapper = Callable[[str, int], Allocation]


@dataclass(frozen=True)
class AppParams:
    """Base class for per-app workload parameters."""


@dataclass
class RunOutcome:
    """What a crash-free run produced."""

    kernels: List[KernelResult]

    @property
    def cycles(self) -> float:
        return sum(k.cycles for k in self.kernels)


class App(abc.ABC):
    """One PM-aware GPU application."""

    #: Registry name ("gpkvs", "srad", ...).
    name: str = ""
    #: Table 2's "Scoped PMO" column.
    scoped_pmo: str = ""
    #: Table 2's "Recovery" column: "logging" or "native".
    recovery_style: str = ""

    @abc.abstractmethod
    def attach(self, system: GPUSystem, pm: PMMapper) -> None:
        """Map PM regions through *pm* and volatile buffers (with their
        uploads) through ``system.malloc``, in a fixed order."""

    def initialize(self, system: GPUSystem) -> None:
        """Write the initial PM contents of a fresh machine (default:
        none — regions start zeroed)."""

    def setup(self, system: GPUSystem) -> None:
        """Allocate PM regions and initialize inputs."""
        self.attach(system, system.pm_create)
        self.initialize(system)

    def reopen(self, system: GPUSystem) -> None:
        """Re-open PM regions by name on a rebooted system."""
        self.attach(system, lambda name, size: system.pm_open(name))

    @abc.abstractmethod
    def run(self, system: GPUSystem) -> RunOutcome:
        """Crash-free execution (the part every figure times)."""

    @abc.abstractmethod
    def recover(self, system: GPUSystem) -> RunOutcome:
        """Post-crash recovery on a rebooted system.

        For logging apps this is the recovery kernel; native apps re-run
        their kernel, which skips already-persisted work.
        """

    @abc.abstractmethod
    def check(self, system: GPUSystem, complete: bool = True) -> None:
        """Verify consistency invariants; with ``complete=True``, also
        verify the final answer matches the CPU reference."""

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    @staticmethod
    def require(condition: bool, message: str) -> None:
        if not condition:
            raise RecoveryError(message)
