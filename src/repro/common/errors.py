"""Exception hierarchy for the reproduction library."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigError(ReproError):
    """An invalid or inconsistent configuration was supplied."""


class SimulationError(ReproError):
    """The simulation reached an invalid state (engine-level failure)."""


class LivelockError(SimulationError):
    """The engine processed a bounded number of events without any
    forward progress (no persist flushed, no warp retired).

    Carries the diagnostics needed to tell *which* structure wedged:
    the simulated time, how many idle events elapsed, and a snapshot of
    queue depths (engine event queue plus whatever the device layer
    reports — blocked warps, persist-buffer occupancy).
    """

    def __init__(
        self,
        now: float,
        idle_events: int,
        queue_depths: "dict[str, float] | None" = None,
    ) -> None:
        self.now = now
        self.idle_events = idle_events
        self.queue_depths = dict(queue_depths or {})
        depths = ", ".join(
            f"{name}={value:g}" for name, value in sorted(self.queue_depths.items())
        )
        super().__init__(
            f"no forward progress after {idle_events} events (t={now:.0f}); "
            f"queue depths: {depths or 'unavailable'}"
        )


class PersistencyError(ReproError):
    """A persistency-model invariant was violated during simulation."""


class MemoryError_(ReproError):
    """An invalid memory access (bad address, unallocated region)."""


class RecoveryError(ReproError):
    """Post-crash recovery produced an inconsistent data structure."""


class LitmusError(ReproError):
    """A litmus test is malformed or its outcome check failed."""


class FaultInjectionError(ReproError):
    """An injected fault escalated into a hard failure (for example, an
    NVM write exhausted its retry budget)."""


class TornPersistError(FaultInjectionError):
    """A torn-persist injection could not be applied coherently (for
    example, a tear requested on an empty or single-word record where
    the plan demands a strict partial write)."""
