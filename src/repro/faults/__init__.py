"""Systematic fault injection with recovery oracles.

The persistence path can fail in more ways than a clean power cut; this
subpackage models those ways and checks that every protocol survives
them — or fails *diagnosably*:

* :mod:`~repro.faults.plans` — declarative, JSON-round-trippable
  :class:`FaultPlan` descriptions (torn persists, dropped drains,
  delayed / lost acks, transient NVM write failures, chronic fault
  timelines), each declaring what a correct implementation must
  do under it;
* :mod:`~repro.faults.injector` — :class:`FaultInjector`, the
  deterministic plan interpreter the memory subsystem and persistency
  models consult;
* :mod:`~repro.faults.oracles` — typed outcome classification: the
  run-exception classes, the formal oracle (validate observed crash
  images against the axiomatic model's reachable states), and the
  application oracle's classes re-exported from :mod:`repro.crash`,
  whose :func:`~repro.crash.recover` reboots, recovers and checks;
* :mod:`~repro.faults.runner` — one scenario end to end: the injected
  run and a crash at every persist boundary, both through a
  :class:`~repro.crash.CrashHarness`, then a minimized reproducer;
* :mod:`~repro.faults.soak` — a serving stream's crash→recover→crash
  chain under a fault timeline, with the oracle at every reboot and a
  zero-loss audit;
* :mod:`~repro.faults.campaign` — ``python -m repro.faults.campaign``,
  the sweep driver (apps x models x placements x plans, plus soak
  chains) with a deterministic JSON report.
"""

from repro.faults.injector import FaultInjector, build_injector
from repro.faults.oracles import (
    APP_VIOLATION,
    CLASSIFICATIONS,
    CONSISTENT,
    FAULT_RAISED,
    HUNG,
    INCONSISTENT_CLASSES,
    JOB_FAILED,
    MODEL_ERROR,
    RECOVERY_RAISED,
    UNREACHABLE_STATE,
    run_litmus_oracle,
)
from repro.faults.plans import (
    EXPECT_CONSISTENT,
    EXPECT_FAULT_RAISED,
    EXPECT_HUNG,
    EXPECT_INCONSISTENT,
    EXPECTATIONS,
    PLAN_KINDS,
    AckDelayPlan,
    AckLossPlan,
    DrainDropPlan,
    FaultPlan,
    NVMTransientPlan,
    PowerCutPlan,
    TornPersistPlan,
)
from repro.faults.runner import (
    DEFAULT_MAX_CRASH_POINTS,
    OUTCOME_INCONSISTENT,
    run_fault_scenario,
)

__all__ = [
    "APP_VIOLATION",
    "AckDelayPlan",
    "AckLossPlan",
    "CLASSIFICATIONS",
    "CONSISTENT",
    "DEFAULT_MAX_CRASH_POINTS",
    "DrainDropPlan",
    "EXPECTATIONS",
    "EXPECT_CONSISTENT",
    "EXPECT_FAULT_RAISED",
    "EXPECT_HUNG",
    "EXPECT_INCONSISTENT",
    "FAULT_RAISED",
    "FaultInjector",
    "FaultPlan",
    "HUNG",
    "INCONSISTENT_CLASSES",
    "JOB_FAILED",
    "MODEL_ERROR",
    "NVMTransientPlan",
    "OUTCOME_INCONSISTENT",
    "PLAN_KINDS",
    "PowerCutPlan",
    "RECOVERY_RAISED",
    "TornPersistPlan",
    "UNREACHABLE_STATE",
    "build_injector",
    "run_fault_scenario",
    "run_litmus_oracle",
]
