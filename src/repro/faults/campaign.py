"""The fault-injection campaign driver.

``python -m repro.faults.campaign`` sweeps fault plans across apps,
persistency models, and PM placements.  Every (app, model, placement,
plan) cell is one crash-isolated :class:`~repro.exec.jobs.ScenarioJob`
submitted through the shared :class:`~repro.exec.executor.Executor`, so
campaign cells parallelize and dedupe exactly like the paper's figure
sweeps.

The ``soak`` section runs crash→recover→crash chains of a serving
stream under chronic fault timelines (:mod:`repro.faults.soak`); each
chain is matched against its timeline's ``expect`` like any other plan.

The report is deterministic JSON: rows appear in submission order, no
wall-clock or hostnames are recorded, and every injected decision is a
pure function of the plan — ``--workers 1`` and ``--workers 4`` produce
byte-identical reports (CI diffs them).

Quick start::

    python -m repro.faults.campaign --smoke          # bounded CI preset
    python -m repro.faults.campaign --list-plans     # what can go wrong
    python -m repro.faults.campaign --repro repro.json   # replay one cell

Exit status is 0 iff no scenario, soak or litmus cell violated its
declared expectation (``summary.unexpected`` is empty).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.check.corpus import EXPECTATIONS
from repro.common.config import ModelName, PMPlacement, small_system
from repro.exec import Executor, ScenarioJob
from repro.exec.executor import add_timeout_arg, positive_int
from repro.exec.jobs import MODE_FAULTS, MODE_SOAK
from repro.faults.oracles import (
    CONSISTENT,
    JOB_FAILED,
    UNREACHABLE_STATE,
    run_litmus_oracle,
)
from repro.faults.plans import (
    EXPECT_FAULT_RAISED,
    EXPECT_INCONSISTENT,
    PLAN_KINDS,
    AckDelayPlan,
    AckLossPlan,
    DrainDropPlan,
    FaultPlan,
    NVMTransientPlan,
    PowerCutPlan,
    TimelinePlan,
    TornPersistPlan,
)
from repro.faults.runner import DEFAULT_MAX_CRASH_POINTS, OUTCOME_INCONSISTENT
from repro.faults.soak import SOAK_PARAMS, brownout_burst, storm_squeeze

#: Shrunk app parameters (the tests' crash-sweep sizes): the campaign
#: measures *correctness*, not performance, so small batches that still
#: exercise every protocol step are the right cost point.
APP_PARAMS: Dict[str, Dict[str, Any]] = {
    "gpkvs": dict(n_pairs=512, capacity=1024, rounds=2),
    "hashmap": dict(n_inserts=512, capacity=1024, rounds=2),
    "srad": dict(side=24),
    "reduction": dict(blocks=3, per_thread=2),
    "multiqueue": dict(batches=2, blocks=3),
    "scan": dict(blocks=3),
}

#: Even smaller gpKVS for the CI smoke preset.
SMOKE_PARAMS: Dict[str, Any] = dict(n_pairs=128, capacity=256, rounds=2)
SMOKE_MAX_CRASH_POINTS = 12

#: Serving-subsystem crash-under-load cells: the CI-sized request
#: stream (mirrors ``repro.serve.bench`` smoke params).
SERVE_PARAMS: Dict[str, Any] = dict(
    n_requests=96, n_keys=96, capacity=256, batch_requests=48
)

ALL_MODELS = (ModelName.SBRP, ModelName.GPM, ModelName.EPOCH)
ALL_PLACEMENTS = (PMPlacement.FAR, PMPlacement.NEAR)


def named_plans() -> Dict[str, FaultPlan]:
    """The campaign's default plan menu, by stable name."""
    return {
        "power_cut": PowerCutPlan(),
        "torn_last": TornPersistPlan(),
        "ack_delay": AckDelayPlan(),
        "ack_loss": AckLossPlan(),
        "nvm_transient": NVMTransientPlan(),
        "nvm_exhausted": NVMTransientPlan(
            fails=7, max_retries=3, expect=EXPECT_FAULT_RAISED
        ),
    }


@dataclass(frozen=True)
class Cell:
    """One campaign cell: metadata + the job that measures it."""

    app: str
    app_params: Dict[str, Any]
    model: ModelName
    placement: PMPlacement
    plan: FaultPlan
    max_crash_points: int
    #: Optional memory-system overrides.  A single-entry WPQ with
    #: throttled NVM bandwidth makes acceptance order diverge from send
    #: order across partitions — the congestion that turns latent
    #: ordering bugs (``missing_ofence``) into detected ones.
    wpq_entries: Optional[int] = None
    nvm_bw_scale: Optional[float] = None

    @property
    def name(self) -> str:
        tag = self.app_params.get("seeded_bug", "")
        seeded = f"!{tag}" if tag else ""
        congested = "~congested" if self.wpq_entries is not None else ""
        return (
            f"{self.app}{seeded}@{self.model.value}-{self.placement.value}"
            f"{congested}#{self.plan.label}"
        )

    def job(self) -> ScenarioJob:
        fault = dict(self.plan.to_json())
        fault["max_crash_points"] = self.max_crash_points
        config = small_system(self.model, placement=self.placement)
        if self.wpq_entries is not None or self.nvm_bw_scale is not None:
            memory = config.memory
            if self.wpq_entries is not None:
                memory = replace(memory, wpq_entries=self.wpq_entries)
            if self.nvm_bw_scale is not None:
                memory = replace(memory, nvm_bw_scale=self.nvm_bw_scale)
            config = replace(config, memory=memory)
        return ScenarioJob(
            app=self.app,
            config=config,
            app_params=dict(self.app_params),
            mode=MODE_FAULTS,
            fault=fault,
        )


@dataclass(frozen=True)
class SoakCell:
    """One soak chain: the serving stream under a fault timeline, with a
    crash inside every ``crash_every``-th batch."""

    model: ModelName
    timeline: TimelinePlan
    crash_every: int = 2
    seeded_bug: str = ""

    @property
    def name(self) -> str:
        seeded = f"!{self.seeded_bug}" if self.seeded_bug else ""
        return (
            f"serve_kvs{seeded}@{self.model.value}~crash{self.crash_every}"
            f"#{self.timeline.label}"
        )

    def job(self) -> ScenarioJob:
        params = dict(SOAK_PARAMS)
        if self.seeded_bug:
            params["seeded_bug"] = self.seeded_bug
        return ScenarioJob(
            app="serve_kvs",
            config=small_system(self.model),
            app_params=params,
            mode=MODE_SOAK,
            soak={
                "timeline": self.timeline.to_json(),
                "crash_every_batches": self.crash_every,
            },
        )


# ----------------------------------------------------------------------
# campaign composition
# ----------------------------------------------------------------------
def seeded_cells(
    models: Tuple[ModelName, ...],
    max_points: int,
    params: Optional[Dict[str, Any]] = None,
) -> List[Cell]:
    """Deliberately broken apps under clean power cuts: if the oracles
    don't flag these, they have no teeth."""
    base = dict(params or SMOKE_PARAMS)
    plan = PowerCutPlan(expect=EXPECT_INCONSISTENT)
    return [
        Cell(
            app="gpkvs",
            app_params={**base, "seeded_bug": bug},
            model=model,
            placement=PMPlacement.FAR,
            plan=plan,
            max_crash_points=max_points,
        )
        for bug in ("unsealed_log", "commit_first")
        for model in models
    ]


def congested_cells(
    models: Tuple[ModelName, ...],
    max_points: int,
    params: Optional[Dict[str, Any]] = None,
) -> List[Cell]:
    """The ``missing_ofence`` teeth check.

    The bug drops the record->table ordering fence, which is *latent*
    under an uncongested FIFO drain: the persist buffer happens to send
    the undo record before the table overwrite anyway.  A single-entry
    WPQ at 2% NVM bandwidth decouples acceptance order from send order
    across the two NVM partitions, so some table overwrite becomes
    durable before its (invalid) undo record — and a crash in that
    window defeats recovery.

    Acceptance order only diverges *across* partitions (each partition's
    WPQ is FIFO), so the capacity is adjusted to give the table regions
    an odd line count: that flips ``tbl_val``'s base-line parity, putting
    every op group's value line on the opposite partition from its undo
    record.  With an even line count the whole group shares a partition
    and the bug stays hidden no matter how congested the drain is.
    """
    base = dict(params or SMOKE_PARAMS)
    cap_lines = -(-4 * int(base["capacity"]) // 128)
    if cap_lines % 2 == 0:
        base["capacity"] = (cap_lines - 1) * 32
    plan = PowerCutPlan(expect=EXPECT_INCONSISTENT)
    return [
        Cell(
            app="gpkvs",
            app_params={**base, "seeded_bug": "missing_ofence"},
            model=model,
            placement=PMPlacement.FAR,
            plan=plan,
            max_crash_points=max_points,
            wpq_entries=1,
            nvm_bw_scale=0.02,
        )
        for model in models
    ]


def serve_cells(
    models: Tuple[ModelName, ...],
    max_points: int,
    params: Optional[Dict[str, Any]] = None,
) -> List[Cell]:
    """Crash-under-load: power-cut the serving stream's durable
    transactions mid-flight under every model (recovery must land on a
    consistent table), plus the ``early_commit`` teeth check — the
    transaction layer truncates its undo log before the in-place update
    it covers, so some crash window must defeat recovery."""
    base = dict(params or SERVE_PARAMS)
    cells = [
        Cell(
            app="serve_kvs",
            app_params=dict(base),
            model=model,
            placement=PMPlacement.FAR,
            plan=PowerCutPlan(),
            max_crash_points=max_points,
        )
        for model in models
    ]
    teeth = ModelName.SBRP if ModelName.SBRP in models else models[0]
    cells.append(
        Cell(
            app="serve_kvs",
            app_params={**base, "seeded_bug": "early_commit"},
            model=teeth,
            placement=PMPlacement.FAR,
            plan=PowerCutPlan(expect=EXPECT_INCONSISTENT),
            max_crash_points=max_points,
        )
    )
    return cells


def smoke_cells(models: Tuple[ModelName, ...]) -> List[Cell]:
    """The bounded CI preset: gpKVS under every model, clean power cuts
    plus safe torn persists, the seeded-bug teeth checks under SBRP,
    and the serving subsystem's crash-under-load cells."""
    cells = [
        Cell(
            app="gpkvs",
            app_params=dict(SMOKE_PARAMS),
            model=model,
            placement=PMPlacement.FAR,
            plan=plan,
            max_crash_points=SMOKE_MAX_CRASH_POINTS,
        )
        for model in models
        for plan in (PowerCutPlan(), TornPersistPlan())
    ]
    seeded_models = (
        (ModelName.SBRP,) if ModelName.SBRP in models else models[:1]
    )
    cells += seeded_cells(seeded_models, SMOKE_MAX_CRASH_POINTS)
    cells += congested_cells(seeded_models, SMOKE_MAX_CRASH_POINTS)
    cells += serve_cells(models, SMOKE_MAX_CRASH_POINTS)
    return cells


def soak_cells(models: Tuple[ModelName, ...], full: bool) -> List[SoakCell]:
    """Soak chains.  The smoke pair is the SBRP chain under the
    brownout+burst schedule, which must survive its crashes with zero
    committed loss, and the same chain with the ``early_commit`` bug,
    which the oracle must flag at a reboot.  The full set adds the
    storm+squeeze schedule under every model and a chain that crashes
    inside every batch."""
    model = ModelName.SBRP if ModelName.SBRP in models else models[0]
    cells = [
        SoakCell(model, brownout_burst()),
        SoakCell(
            model, brownout_burst(EXPECT_INCONSISTENT), seeded_bug="early_commit"
        ),
    ]
    if full:
        cells += [SoakCell(m, storm_squeeze()) for m in models]
        cells.append(SoakCell(model, brownout_burst(), crash_every=1))
    return cells


def full_cells(
    apps: List[str],
    models: Tuple[ModelName, ...],
    placements: Tuple[PMPlacement, ...],
    plans: Dict[str, FaultPlan],
    max_points: int,
) -> List[Cell]:
    cells = [
        Cell(
            app=app,
            app_params=dict(APP_PARAMS[app]),
            model=model,
            placement=placement,
            plan=plan,
            max_crash_points=max_points,
        )
        for app in apps
        for model in models
        for placement in placements
        for _, plan in sorted(plans.items())
    ]
    cells += seeded_cells(models[:1], max_points, params=APP_PARAMS["gpkvs"])
    cells += congested_cells(models[:1], max_points, params=APP_PARAMS["gpkvs"])
    cells += serve_cells(models, max_points)
    return cells


def litmus_cases(
    models: Tuple[ModelName, ...], smoke: bool
) -> List[Dict[str, Any]]:
    """Formal-oracle cases: (test, model, plan, expectation).

    Every case runs a litmus library program on the timing simulator
    and judges the run against the axiomatic model; the scope-bug
    expectation comes from the library's data.  The ``drain_drop`` case
    seeds broken hardware (an acked-but-dropped drain) — the formal
    oracle must flag the run.
    """

    def case(test, model, plan=None, expect=CONSISTENT):
        return {
            "test": test,
            "model": model,
            "plan": plan,
            "expect": expect,
            "expect_scope_bug": EXPECTATIONS[test].scope_bug,
        }

    cases = [
        case("mp_ofence", ModelName.SBRP),
        case(
            "mp_ofence",
            ModelName.SBRP,
            DrainDropPlan(),
            UNREACHABLE_STATE,
        ),
        case("scope_mismatch", ModelName.SBRP),
    ]
    if not smoke:
        cases += [
            case(name, model)
            for name in sorted(EXPECTATIONS)
            for model in models
            if not (name == "mp_ofence" and model is ModelName.SBRP)
        ]
    return cases


# ----------------------------------------------------------------------
# report assembly
# ----------------------------------------------------------------------
def scenario_row(cell: Cell, result: Optional[Any]) -> Dict[str, Any]:
    row: Dict[str, Any] = {
        "name": cell.name,
        "app": cell.app,
        "app_params": dict(cell.app_params),
        "model": cell.model.value,
        "placement": cell.placement.value,
        "plan": cell.plan.label,
        "expect": cell.plan.expect,
    }
    if result is None:
        # Worker tracebacks are environment-specific; the report stays
        # deterministic and the traceback goes to stderr instead.
        row.update(
            outcome=JOB_FAILED,
            matched=False,
            point_counts={},
            injected={},
            error=None,
            reproducer=None,
        )
        return row
    detail = result.detail or {}
    error = detail.get("run", {}).get("error")
    if error is None:
        for point in detail.get("points", ()):
            if point["classification"] != CONSISTENT:
                error = point["error"]
                break
    row.update(
        outcome=detail.get("outcome"),
        matched=bool(detail.get("matched")),
        point_counts=detail.get("point_counts", {}),
        injected=detail.get("injected", {}),
        error=error,
        reproducer=detail.get("reproducer"),
    )
    return row


def soak_row(cell: SoakCell, result: Optional[Any]) -> Dict[str, Any]:
    row: Dict[str, Any] = {
        "name": cell.name,
        "model": cell.model.value,
        "plan": cell.timeline.label,
        "expect": cell.timeline.expect,
    }
    if result is None:
        row.update(outcome=JOB_FAILED, matched=False, failure=None, reboots=[])
        return row
    detail = result.detail
    row.update(
        outcome=detail["outcome"],
        matched=detail["matched"],
        failure=detail["failure"],
        reboots=detail["reboots"],
        lost_committed=detail["lost_committed"],
        injected=detail["injected"],
        stats=dict(result.stats),
    )
    return row


def litmus_row(case: Dict[str, Any]) -> Dict[str, Any]:
    outcome = run_litmus_oracle(
        case["test"], case["model"], plan=case["plan"]
    )
    scope_detected = bool(outcome["scope_bugs"])
    matched = (
        outcome["classification"] == case["expect"]
        and scope_detected == case["expect_scope_bug"]
    )
    return {
        "name": f"{case['test']}@{case['model'].value}"
        + (f"#{case['plan'].label}" if case["plan"] is not None else ""),
        "expect": case["expect"],
        "expect_scope_bug": case["expect_scope_bug"],
        "matched": matched,
        **outcome,
    }


def build_report(
    preset: str,
    cells: List[Cell],
    results: List[Optional[Any]],
    litmus: List[Dict[str, Any]],
    soak: List[Dict[str, Any]],
) -> Dict[str, Any]:
    rows = [scenario_row(cell, result) for cell, result in zip(cells, results)]
    unexpected = [row["name"] for row in rows if not row["matched"]]
    unexpected += [row["name"] for row in soak if not row["matched"]]
    unexpected += [row["name"] for row in litmus if not row["matched"]]
    summary = {
        "scenarios": len(rows),
        "litmus_cases": len(litmus),
        "matched": sum(row["matched"] for row in rows),
        "clean_consistent": sum(
            row["expect"] == CONSISTENT and row["outcome"] == CONSISTENT
            for row in rows
        ),
        "seeded_flagged": sum(
            row["expect"] == EXPECT_INCONSISTENT
            and row["outcome"] == OUTCOME_INCONSISTENT
            for row in rows
        ),
        "litmus_unreachable_detected": sum(
            row["expect"] == UNREACHABLE_STATE
            and row["classification"] == UNREACHABLE_STATE
            for row in litmus
        ),
        "scope_bugs_detected": sum(
            len(row["scope_bugs"]) for row in litmus
        ),
        "soak_chains": len(soak),
        "soak_reboots": sum(len(row["reboots"]) for row in soak),
        "unexpected": unexpected,
    }
    return {
        "campaign": {"preset": preset, "cells": len(cells)},
        "scenarios": rows,
        "soak": soak,
        "litmus": litmus,
        "summary": summary,
    }


def render_report(report: Dict[str, Any]) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def _progress(event: Any) -> None:
    if event.kind == "done":
        print(
            f"[{event.done}/{event.total}] {event.label}: {event.status}",
            file=sys.stderr,
        )


def _repro(path: str) -> int:
    """Replay one reproducer spec (a ScenarioJob JSON) and report."""
    with open(path, "r", encoding="utf-8") as handle:
        job = ScenarioJob.from_json(json.load(handle))
    result = job.execute()
    detail = result.detail or {}
    print(render_report(detail), end="")
    reproduced = detail.get("outcome") == OUTCOME_INCONSISTENT
    print(
        f"reproduced={reproduced} outcome={detail.get('outcome')}",
        file=sys.stderr,
    )
    return 0 if reproduced else 1


def _list_plans() -> int:
    for kind in sorted(PLAN_KINDS):
        cls = PLAN_KINDS[kind]
        default = cls()
        doc = (cls.__doc__ or "").strip().splitlines()[0]
        print(f"{kind:14s} expect={default.expect:12s} {doc}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults.campaign",
        description="Sweep fault plans across apps x models x placements "
        "and classify every post-crash state through the recovery oracles.",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="bounded CI preset: gpkvs x 3 models, power cuts + safe "
        "tears + seeded-bug teeth checks + the SBRP soak pair + the "
        "litmus trio",
    )
    parser.add_argument(
        "--apps", nargs="+", default=None, choices=sorted(APP_PARAMS)
    )
    parser.add_argument(
        "--models",
        nargs="+",
        default=None,
        choices=[m.value for m in ModelName],
    )
    parser.add_argument(
        "--placements",
        nargs="+",
        default=None,
        choices=[p.value for p in PMPlacement],
    )
    parser.add_argument(
        "--plans",
        nargs="+",
        default=None,
        choices=sorted(named_plans()),
        help="restrict the full sweep to these named plans",
    )
    parser.add_argument("--workers", type=positive_int, default=1)
    add_timeout_arg(parser)
    parser.add_argument(
        "--max-crash-points",
        type=positive_int,
        default=None,
        help=f"crash-point cap per cell (default {DEFAULT_MAX_CRASH_POINTS}, "
        f"smoke {SMOKE_MAX_CRASH_POINTS})",
    )
    parser.add_argument("--out", default=None, help="write the JSON report here")
    parser.add_argument(
        "--repro", default=None, help="replay a reproducer spec and exit"
    )
    parser.add_argument("--list-plans", action="store_true")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    if args.list_plans:
        return _list_plans()
    if args.repro is not None:
        return _repro(args.repro)
    if args.smoke:
        # The smoke preset has fixed cells; only --models narrows it.
        for flag in ("apps", "plans", "placements"):
            if getattr(args, flag) is not None:
                parser.error(f"--{flag} does not apply to --smoke")

    models = tuple(
        m for m in ALL_MODELS if args.models is None or m.value in args.models
    )
    placements = tuple(
        p
        for p in ALL_PLACEMENTS
        if args.placements is None or p.value in args.placements
    )
    if args.smoke:
        preset = "smoke"
        cells = smoke_cells(models)
        if args.max_crash_points is not None:
            cells = [
                replace(c, max_crash_points=args.max_crash_points)
                for c in cells
            ]
    else:
        preset = "full"
        plans = named_plans()
        if args.plans is not None:
            plans = {name: plans[name] for name in args.plans}
        cells = full_cells(
            apps=args.apps or sorted(APP_PARAMS),
            models=models,
            placements=placements,
            plans=plans,
            max_points=args.max_crash_points or DEFAULT_MAX_CRASH_POINTS,
        )

    executor = Executor(
        workers=args.workers,
        timeout=args.timeout,
        progress=None if args.quiet else _progress,
    )
    soaks = soak_cells(models, full=not args.smoke)
    results = executor.submit(
        [cell.job() for cell in cells] + [cell.job() for cell in soaks],
        allow_failures=True,
    )
    for failure in executor.failures:
        print(f"--- {failure.job.label} ---\n{failure}", file=sys.stderr)

    soak = [
        soak_row(cell, result)
        for cell, result in zip(soaks, results[len(cells) :])
    ]
    litmus = [litmus_row(case) for case in litmus_cases(models, args.smoke)]
    report = build_report(preset, cells, results[: len(cells)], litmus, soak)
    text = render_report(report)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        print(text, end="")

    print(executor.footer(), file=sys.stderr)
    summary = report["summary"]
    print(
        f"{preset}: {summary['scenarios']} scenarios + "
        f"{summary['soak_chains']} soak chains + "
        f"{summary['litmus_cases']} litmus cases; "
        f"{summary['clean_consistent']} clean-consistent, "
        f"{summary['seeded_flagged']} seeded bugs flagged, "
        f"{summary['litmus_unreachable_detected']} unreachable detected, "
        f"{len(summary['unexpected'])} unexpected",
        file=sys.stderr,
    )
    if summary["unexpected"]:
        for name in summary["unexpected"]:
            print(f"UNEXPECTED: {name}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
