"""One fault-injected scenario, end to end.

:func:`run_fault_scenario` is what a :class:`~repro.exec.jobs.ScenarioJob`
in ``mode="faults"`` executes inside its (possibly separate) worker
process.  It drives a :class:`~repro.crash.CrashHarness` whose baseline
run carries a :class:`~repro.faults.injector.FaultInjector` built from
the job's plan:

1. run the app under the injector, classifying any wedge/escalation by
   type;
2. if the run completed, crash at **every persist boundary** (each
   instant the durable image can change, deterministically subsampled to
   ``max_crash_points``) and let the harness recover each image on a
   clean machine and classify it (:func:`repro.crash.recover`);
3. fold the per-point classifications into a scenario *outcome*, match
   it against the plan's declared expectation, and attach a minimized
   reproducer spec (one crash point, JSON-loadable as a ScenarioJob)
   for the first inconsistent point.

Everything in the returned :class:`~repro.bench.runner.ScenarioResult`
is deterministic — no wall-clock, no unseeded randomness — which is
what lets campaign reports compare byte-identical across worker counts.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.bench.runner import ScenarioResult
from repro.common.config import SystemConfig
from repro.common.errors import ReproError
from repro.crash import CrashHarness
from repro.faults.injector import FaultInjector
from repro.faults.oracles import (
    CONSISTENT,
    FAULT_RAISED,
    HUNG,
    INCONSISTENT_CLASSES,
    RUN_COMPLETED,
    classify_run_exception,
    describe,
)
from repro.faults.plans import (
    EXPECT_CONSISTENT,
    EXPECT_FAULT_RAISED,
    EXPECT_HUNG,
    EXPECT_INCONSISTENT,
    FaultPlan,
)

#: Default cap on sampled crash points per scenario.  Boundaries are
#: subsampled deterministically (first + last always kept), so a sweep
#: stays bounded no matter how many persists the app issues.
DEFAULT_MAX_CRASH_POINTS = 24

#: Scenario outcome when at least one crash point was inconsistent.
OUTCOME_INCONSISTENT = "inconsistent"


def matches(expect: str, outcome: str) -> bool:
    """Does the scenario *outcome* satisfy the plan's expectation?"""
    return {
        EXPECT_CONSISTENT: CONSISTENT,
        EXPECT_INCONSISTENT: OUTCOME_INCONSISTENT,
        EXPECT_HUNG: HUNG,
        EXPECT_FAULT_RAISED: FAULT_RAISED,
    }[expect] == outcome


def run_fault_scenario(
    app_name: str,
    config: SystemConfig,
    app_params: Dict[str, Any],
    fault: Dict[str, Any],
) -> ScenarioResult:
    """Execute one (app, config, fault plan) scenario; see module doc.

    *fault* is ``FaultPlan.to_json()`` plus optional runner knobs:
    ``max_crash_points`` (int) and ``crash_times`` (explicit list — how
    reproducer specs pin a single crash point).
    """
    from repro.apps import build_app

    payload = dict(fault)
    max_crash_points = payload.pop("max_crash_points", DEFAULT_MAX_CRASH_POINTS)
    crash_times = payload.pop("crash_times", None)
    plan = FaultPlan.from_json(payload)
    injector = FaultInjector(plan)
    harness = CrashHarness(
        lambda: build_app(app_name, **app_params), config, faults=injector
    )

    # Phase 1: the injected run.
    run_class = RUN_COMPLETED
    run_error: Optional[str] = None
    cycles = 0.0
    try:
        cycles = harness.run_cycles
    except ReproError as exc:
        run_class = classify_run_exception(exc)
        run_error = describe(exc)

    # Phase 2: crash at every persist boundary, recover, classify.
    points: List[Dict[str, Any]] = []
    if run_class == RUN_COMPLETED:
        if crash_times is not None:
            times = [float(t) for t in crash_times]
        else:
            times = harness.persist_boundaries(max_crash_points)
        for t in times:
            report = harness.crash_at(t, complete=False)
            points.append(
                {
                    "time": t,
                    "classification": report.classification,
                    "error": report.error,
                }
            )

    # Phase 3: fold into outcome + verdict + minimized reproducer.
    point_counts: Dict[str, int] = {}
    for point in points:
        cls = point["classification"]
        point_counts[cls] = point_counts.get(cls, 0) + 1
    if run_class != RUN_COMPLETED:
        outcome = run_class
    elif any(p["classification"] in INCONSISTENT_CLASSES for p in points):
        outcome = OUTCOME_INCONSISTENT
    else:
        outcome = CONSISTENT

    reproducer: Optional[Dict[str, Any]] = None
    for point in points:
        if point["classification"] in INCONSISTENT_CLASSES:
            pinned = dict(plan.to_json())
            pinned["crash_times"] = [point["time"]]
            reproducer = {
                "app": app_name,
                "app_params": dict(app_params),
                "config": config.to_dict(),
                "verify": True,
                "mode": "faults",
                "fault": pinned,
            }
            break

    detail = {
        "plan": plan.to_json(),
        "expect": plan.expect,
        "run": {"classification": run_class, "error": run_error},
        "points": points,
        "point_counts": dict(sorted(point_counts.items())),
        "injected": dict(sorted(injector.counts.items())),
        "outcome": outcome,
        "matched": matches(plan.expect, outcome),
        "reproducer": reproducer,
    }
    stats = {
        "faults.crash_points": float(len(points)),
        "faults.inconsistent_points": float(
            sum(
                count
                for cls, count in point_counts.items()
                if cls in INCONSISTENT_CLASSES
            )
        ),
    }
    for key, value in injector.counts.items():
        stats[f"faults.{key}"] = float(value)
    return ScenarioResult(
        app=app_name,
        label=f"{config.label}[{plan.label}]",
        cycles=cycles,
        stats=stats,
        detail=detail,
    )
