"""Crash injection and recovery orchestration.

:func:`~repro.crash.harness.recover` is the only code that reboots from
a crash image: it boots a fresh machine from the durable image, reopens
the app's PM regions, runs its recovery kernel and classifies the result
(``consistent``, ``app_violation`` or ``recovery_raised``).

:class:`~repro.crash.harness.CrashHarness` runs an application's
crash-free execution once (or adopts one that already finished), then
replays power failures at arbitrary instants: every persist's
durability time is logged, so a crash at time *t* yields the exact
durable PM image ADR semantics guarantee.  Each crash goes through
:func:`recover` and (optionally) re-runs the workload to completion to
prove forward progress.  The fault campaign drives its
scenarios through the same harness.
"""

from repro.crash.harness import (
    APP_VIOLATION,
    CONSISTENT,
    RECOVERY_RAISED,
    CrashHarness,
    CrashReport,
    describe,
    recover,
)

__all__ = [
    "APP_VIOLATION",
    "CONSISTENT",
    "RECOVERY_RAISED",
    "CrashHarness",
    "CrashReport",
    "describe",
    "recover",
]
