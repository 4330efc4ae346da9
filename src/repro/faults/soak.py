"""Soak chains: crash→recover→crash under a chronic fault timeline.

``run_soak_scenario`` drives one serving stream (a
:class:`~repro.serve.app.ServeKVS` plan) through a
:class:`~repro.faults.plans.TimelinePlan`, crashing the machine inside
every ``crash_every_batches``-th batch and rebooting onto the surviving
image.  The fault campaign (:mod:`repro.faults.campaign`) runs these
chains as its ``soak`` cells.

* **one reboot per crash, judged by the oracle** — every crash image
  is rebooted once, through :func:`repro.crash.recover` (reopen,
  recovery kernel, sync, invariant check), onto the machine
  that keeps running under the fault timeline.  The chain continues on
  that machine only if the oracle calls it consistent, so a single bad
  image fails the soak even if later batches would have papered over
  it, and a recovery that raises is a ``recovery_raised`` failure;
* **zero data loss** — after each reboot's recovery, every key's
  recovered version is audited against the ledger of batches whose
  group commit *durably completed* before the crash instant; a
  committed version regressing is data loss and is reported as such;
* **outcome** — ``consistent`` when the chain survives with no
  committed loss, ``inconsistent`` on an oracle flag, a lost commit or
  a failed final check, else the classification of the exception that
  stopped the chain (``fault_raised`` when a burst exhausts the retry
  budget).  It is matched against the timeline's ``expect``;
* **SLOs** — availability (1 − recovery downtime / total machine
  time), goodput (committed requests per second of wall time on the
  open-loop clock), latency percentiles under fault, and the
  recovery-time distribution.

Everything is a pure function of (app params, config, soak payload), so
soak rows are byte-identical across Executor worker counts.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional

from repro.apps import build_app
from repro.bench.runner import ScenarioResult
from repro.common.config import SystemConfig
from repro.common.errors import ReproError
from repro.common.units import CLOCK_MHZ
from repro.crash import recover
from repro.faults.injector import FaultInjector
from repro.faults.oracles import (
    APP_VIOLATION,
    CONSISTENT,
    INCONSISTENT_CLASSES,
    classify_run_exception,
    describe,
)
from repro.faults.plans import (
    EXPECT_CONSISTENT,
    FaultPlan,
    FaultWindow,
    TimelinePlan,
)
from repro.faults.runner import OUTCOME_INCONSISTENT, matches
from repro.metrics.registry import MetricHistogram, MetricsRegistry
from repro.system import GPUSystem

#: Serving-stream sizes of the campaign's soak cells (the serve bench's
#: smoke stream with smaller batches, so the chain crosses more
#: group-commit boundaries — every second batch hosts a crash).
SOAK_PARAMS: Dict[str, Any] = dict(
    n_requests=96,
    n_keys=96,
    capacity=256,
    batch_requests=24,
    rate_per_kcycle=40.0,
)


def brownout_burst(expect: str = EXPECT_CONSISTENT) -> TimelinePlan:
    """NVM at 5% write bandwidth for most of the chain, plus a burst in
    which every 7th persist fails 4 times — inside the device retry
    budget of 5, so a correct stack survives it."""
    return TimelinePlan(
        expect=expect,
        windows=(
            FaultWindow("brownout", start=3000.0, end=22000.0, intensity=0.05),
            FaultWindow("burst", start=4000.0, end=9000.0, intensity=4.0, every=7),
        ),
    )


def storm_squeeze() -> TimelinePlan:
    """An ack storm (finite acks deferred to the window's end)
    overlapping a WPQ squeeze (capacity clamped to 4 entries) —
    congestion without any persist ever failing outright.  The storm
    opens just before the soak stream's first acks (t≈6274 under SBRP),
    so it defers acks under every model."""
    return TimelinePlan(
        windows=(
            FaultWindow("ack_storm", start=6000.0, end=10000.0, intensity=500.0),
            FaultWindow("wpq_squeeze", start=3000.0, end=16000.0, intensity=4.0),
        )
    )


def _batch_commits(plan) -> List[Dict[int, int]]:
    """Per batch: the key→version writes its group commit applies."""
    commits: List[Dict[int, int]] = []
    for batch in plan.batches:
        applied: Dict[int, int] = {}
        for req in batch.requests:
            if req.is_applying_write:
                applied[int(req.key)] = max(
                    applied.get(int(req.key), 0), int(req.version)
                )
        commits.append(applied)
    return commits


def _audit_committed(
    system: GPUSystem, app, committed: Mapping[int, int]
) -> List[Dict[str, int]]:
    """Keys whose recovered version regressed below a committed one."""
    lost: List[Dict[str, int]] = []
    if not committed:
        return lost
    versions = app.row_versions(
        system.read_words(app.tbl_val, app.params.capacity)
    )
    for key in sorted(committed):
        version = committed[key]
        recovered = int(versions[key])
        if recovered < version:
            lost.append(
                {"key": int(key), "committed": int(version), "recovered": recovered}
            )
    return lost


def _merge_counts(totals: Dict[str, int], injector: FaultInjector) -> None:
    for key, value in injector.counts.items():
        totals[key] = totals.get(key, 0) + int(value)


def run_soak_scenario(
    app_name: str,
    config: SystemConfig,
    app_params: Optional[dict] = None,
    soak: Optional[Mapping[str, Any]] = None,
) -> ScenarioResult:
    """Soak one serving stream through a chronic fault schedule."""
    payload = dict(soak or {})
    plan_json = payload.pop("timeline", None)
    if plan_json is None:
        raise ValueError("soak payload needs a 'timeline' fault plan")
    timeline = FaultPlan.from_json(plan_json)
    if not isinstance(timeline, TimelinePlan):
        raise ValueError("soak timeline must be a timeline fault plan")
    crash_every = int(payload.pop("crash_every_batches", 0))
    crash_fraction = float(payload.pop("crash_fraction", 0.6))
    if payload:
        raise ValueError(f"unknown soak payload keys {sorted(payload)}")

    params = dict(app_params or {})
    # One registry is every machine's stats: the chain's snapshot
    # counts all of its machines.
    metrics = MetricsRegistry()
    latencies = MetricHistogram()  # committed-request latency, cycles
    recovery_hist = MetricHistogram()

    app = build_app(app_name, **params)
    plan = app.plan
    n_batches = len(plan.batches)
    commits = _batch_commits(plan)

    offset = 0.0  # global soak-chain time of the current machine's boot
    total_time: Optional[float] = None  # set when a recovery raises
    downtime = 0.0
    clock = 0.0  # open-loop pricing clock (global cycles)
    committed: Dict[int, int] = {}  # durable ledger: key -> version
    committed_requests = 0
    recoveries: List[float] = []
    reboots: List[Dict[str, Any]] = []
    lost: List[Dict[str, int]] = []
    injected: Dict[str, int] = {}
    failure: Optional[Dict[str, Any]] = None
    replayed: set = set()

    # The injector of the machine booted last; its counts merge into
    # ``injected`` when that machine crashes or the chain ends.
    faults = FaultInjector(timeline, offset)
    system = GPUSystem(config, faults=faults, metrics=metrics)
    app.setup(system)

    index = 0
    while index < n_batches:
        batch = plan.batches[index]
        t0 = system.now
        try:
            results = app.serve_batch(system, index)
        except ReproError as exc:
            failure = {
                "stage": "serve",
                "batch": index,
                "classification": classify_run_exception(exc),
                "error": describe(exc),
            }
            break
        kernel_cycles = float(sum(r.cycles for r in results))

        crash_here = (
            crash_every > 0
            and (index + 1) % crash_every == 0
            and index not in replayed
        )
        if crash_here:
            # Crash inside this batch's execution window: everything up
            # to batch index-1 is durably committed, batch index is the
            # in-flight casualty the recovery protocol must handle.
            t_crash = t0 + crash_fraction * (system.now - t0)
            image = system.crash(at=t_crash)
            _merge_counts(injected, faults)
            offset += t_crash
            faults = FaultInjector(timeline, offset)
            classification, error, rebooted, recovery_cycles = recover(
                app, config, image, faults=faults, metrics=metrics
            )
            audit: List[Dict[str, int]] = []
            if rebooted is None:
                # No machine came up: the chain's time ends at the crash.
                total_time = offset
            else:
                recoveries.append(recovery_cycles)
                downtime += recovery_cycles
                clock += recovery_cycles  # clients wait out the reboot
                recovery_hist.observe(recovery_cycles)
                audit = _audit_committed(rebooted, app, committed)
                lost.extend(audit)
                system = rebooted
            reboots.append(
                {
                    "batch": index,
                    "crash_time": t_crash,
                    "global_time": offset,
                    "oracle": classification,
                    "error": error,
                    "recovery_cycles": recovery_cycles,
                    "lost_committed": len(audit),
                }
            )
            if classification != CONSISTENT:
                failure = {
                    "stage": "oracle",
                    "batch": index,
                    "classification": classification,
                    "error": error,
                }
                break
            replayed.add(index)
            continue  # replay the in-flight batch on the recovered machine

        # The batch's group commit is durable: price it, ledger it.
        start = max(clock, offset + float(batch.ready_time))
        clock = start + kernel_cycles
        for req in batch.requests:
            latencies.observe(clock - (offset + float(req.arrival)))
        committed.update(commits[index])
        committed_requests += len(batch.requests)
        index += 1

    _merge_counts(injected, faults)
    if failure is None:
        try:
            app.check(system, complete=True)
        except ReproError as exc:
            failure = {
                "stage": "final_check",
                "batch": n_batches - 1,
                "classification": APP_VIOLATION,
                "error": describe(exc),
            }
    if failure is None:
        outcome = OUTCOME_INCONSISTENT if lost else CONSISTENT
    elif lost or failure["classification"] in INCONSISTENT_CLASSES:
        outcome = OUTCOME_INCONSISTENT
    else:
        outcome = failure["classification"]

    if total_time is None:
        total_time = offset + system.now
    availability = 1.0 - downtime / total_time if total_time > 0 else 1.0
    span_s = clock / (CLOCK_MHZ * 1e6)
    goodput = committed_requests / span_s if span_s > 0 else 0.0
    latency = latencies.summary()
    recovery_summary = recovery_hist.summary()

    stats: Dict[str, float] = {
        "soak.availability": availability,
        "soak.goodput_rps": goodput,
        "soak.committed_requests": float(committed_requests),
        "soak.crashes": float(len(reboots)),
        "soak.machine_cycles": total_time,
        "soak.downtime_cycles": downtime,
        "soak.span_cycles": clock,
        "soak.latency_p50": latency.get("p50", 0.0),
        "soak.latency_p99": latency.get("p99", 0.0),
        "soak.recovery_p50": recovery_summary.get("p50", 0.0),
        "soak.recovery_max": max(recoveries, default=0.0),
        "soak.lost_committed": float(len(lost)),
    }
    detail: Dict[str, Any] = {
        "timeline": timeline.to_json(),
        "crash_every_batches": crash_every,
        "crash_fraction": crash_fraction,
        "batches": n_batches,
        "reboots": reboots,
        "recovery_cycles": recoveries,
        "lost_committed": lost,
        "injected": dict(sorted(injected.items())),
        "failure": failure,
        "outcome": outcome,
        "matched": matches(timeline.expect, outcome),
    }
    return ScenarioResult(
        app=app_name,
        label=config.label,
        cycles=total_time,
        stats=stats,
        detail=detail,
        metrics=metrics.snapshot(),
    )
