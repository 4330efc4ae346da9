"""Conformance campaign driver: ``python -m repro.check.conformance``.

Runs the directed corpus plus a seeded fuzzed stream through every
target — each unmodified persistency model, and each SBRP mutant — as
batched :class:`~repro.exec.jobs.ScenarioJob`\\ s on the shared
Executor.  Batches are program-major: a job checks its programs one at
a time under every target, so each program's allowed sets are derived
once (the oracle keeps the last program's).  The batch partition is
fixed up front (independent of the worker count) and shrinking runs
serially in the driver process, so the JSON report is byte-identical
for any ``--workers``.

Exit status 1 when an unmodified model produced any oracle violation,
or when a shipped mutant went uncaught — either means the conformance
story is broken.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.common.config import ModelName, small_system
from repro.exec import MODE_CHECK, Executor, ScenarioJob
from repro.exec.executor import non_negative_int, positive_int
from repro.formal.events import LitmusProgram

from repro.check.corpus import corpus_programs
from repro.check.enumerator import SMOKE_VARIANTS, VARIANTS, Variant
from repro.check.fuzzer import generate_stream
from repro.check.mutants import describe_mutants, mutant_names
from repro.check.oracle import check_program, failing_variants
from repro.check.shrink import regression_snippet, shrink_program

#: Programs per batch job.  Fixed (not derived from the worker count)
#: so the job set — and therefore the report — is worker-independent.
DEFAULT_BATCH = 25

STOCK_MODELS = (ModelName.GPM, ModelName.EPOCH, ModelName.SBRP)


def _chunk(items: List[Any], size: int) -> List[List[Any]]:
    return [items[i : i + size] for i in range(0, len(items), size)]


def _make_job(
    programs: List[LitmusProgram],
    models: Sequence[ModelName],
    mutants: Sequence[str],
    variants: List[Variant],
    crash_points: int,
) -> ScenarioJob:
    """One batch: every program under every stock model, then under
    every SBRP mutant (see :func:`repro.check.runner.run_check_batch`)."""
    return ScenarioJob(
        app="conformance",
        config=small_system(ModelName.SBRP),
        mode=MODE_CHECK,
        verify=False,
        check={
            "programs": [p.to_json() for p in programs],
            "models": [model.value for model in models],
            "mutants": list(mutants),
            "variants": [v.to_json() for v in variants],
            "crash_points": crash_points,
        },
    )


def _target_summary(reports: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Aggregate per-program oracle reports for one (model, mutant)."""
    violations: List[Dict[str, Any]] = []
    allowed_total = 0
    observed_total = 0
    for report in reports:
        allowed_total += report["coverage"]["allowed"]
        observed_total += report["coverage"]["observed_allowed"]
        for variant_report in report["variants"]:
            for violation in variant_report["violations"]:
                entry = dict(violation)
                entry["program"] = report["program"]
                violations.append(entry)
    return {
        "programs": len(reports),
        "violations": len(violations),
        "violation_sample": violations[:10],
        "coverage_ratio": (
            round(observed_total / allowed_total, 4) if allowed_total else 1.0
        ),
    }


def _shrink_mutant_divergence(
    reports: List[Dict[str, Any]],
    programs_by_name: Dict[str, LitmusProgram],
    model: ModelName,
    mutant: str,
    crash_points: int,
    do_shrink: bool,
) -> Dict[str, Any]:
    """Find the first diverging program for *mutant* and minimize it."""
    first = next((r for r in reports if r["violations"]), None)
    if first is None:
        return {"caught": False}
    variant_names = failing_variants(first)
    variants = [v for v in VARIANTS if v.name in variant_names]
    program = programs_by_name[first["program"]]
    entry: Dict[str, Any] = {
        "caught": True,
        "program": first["program"],
        "variants": variant_names,
        "violation_types": sorted(
            {
                v["type"]
                for vr in first["variants"]
                for v in vr["violations"]
            }
        ),
    }
    if do_shrink:

        def still_fails(candidate: LitmusProgram) -> bool:
            report = check_program(
                candidate,
                model,
                variants,
                crash_points=crash_points,
                mutant=mutant,
            )
            return report["violations"] > 0

        shrunk = shrink_program(program, still_fails)
        entry["shrunk"] = shrunk.to_json()
        entry["shrunk_ops"] = shrunk.op_count()
        entry["regression_test"] = regression_snippet(
            shrunk, model.value, mutant, variant_names
        )
    return entry


def build_report(
    *,
    programs: int,
    seed: int,
    mutant_programs: int,
    batch_size: int,
    crash_points: int,
    variants: List[Variant],
    models: Sequence[ModelName],
    mutants: Sequence[str],
    executor: Executor,
    shrink: bool = True,
) -> Dict[str, Any]:
    corpus = corpus_programs()
    fuzzed = generate_stream(seed, programs)
    stock_programs = corpus + fuzzed
    mutant_pool = corpus + fuzzed[:mutant_programs]
    programs_by_name = {p.name: p for p in mutant_pool}

    # One fixed job list up front.  Stock targets run over the full
    # set, mutant targets over the corpus plus a fuzzed prefix: the
    # mutant pool is a prefix of the stock set, so its batches carry the
    # mutants too and the batches after it do not.
    pooled = len(mutant_pool) if mutants else 0
    jobs = [
        _make_job(batch, models, mutants, variants, crash_points)
        for batch in _chunk(stock_programs[:pooled], batch_size)
    ] + [
        _make_job(batch, models, (), variants, crash_points)
        for batch in _chunk(stock_programs[pooled:], batch_size)
    ]

    results = executor.submit(jobs)

    # Each job's reports are program-major; regroup them per target,
    # each target's programs in set order.
    by_target: Dict[Tuple[str, Optional[str]], List[Dict[str, Any]]] = {}
    for result in results:
        assert result is not None and result.detail is not None
        for program_report in result.detail["programs"]:
            target = (program_report["model"], program_report["mutant"])
            by_target.setdefault(target, []).append(program_report)

    report: Dict[str, Any] = {
        "seed": seed,
        "fuzzed_programs": programs,
        "corpus_programs": len(corpus),
        "variants": [v.name for v in variants],
        "crash_points": crash_points,
        "models": {},
        "mutants": {},
    }
    stock_violations = 0
    for model in models:
        summary = _target_summary(by_target[(model.value, None)])
        report["models"][model.value] = summary
        stock_violations += summary["violations"]
    caught = 0
    for mutant in mutants:
        reports = by_target[(ModelName.SBRP.value, mutant)]
        summary = _target_summary(reports)
        summary.update(
            _shrink_mutant_divergence(
                reports, programs_by_name, ModelName.SBRP, mutant,
                crash_points, shrink,
            )
        )
        report["mutants"][mutant] = summary
        caught += int(summary["caught"])
    report["summary"] = {
        "stock_violations": stock_violations,
        "mutants_caught": caught,
        "mutants_total": len(mutants),
        "ok": stock_violations == 0 and caught == len(mutants),
    }
    return report


def render_report(report: Dict[str, Any]) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.check.conformance",
        description="Differential conformance campaign: operational "
        "simulator vs axiomatic model, with mutation teeth.",
    )
    parser.add_argument(
        "--programs", type=non_negative_int, default=500,
        help="fuzzed programs per stock model (default 500)",
    )
    parser.add_argument("--seed", type=int, default=7, help="fuzzer seed")
    parser.add_argument(
        "--mutant-programs", type=non_negative_int, default=40,
        help="fuzzed programs (beyond the corpus) per mutant target",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="small CI budget: fewer programs, the smoke variant subset",
    )
    parser.add_argument("--workers", type=positive_int, default=1)
    parser.add_argument("--out", default=None, help="report path (default stdout)")
    parser.add_argument(
        "--models", default=None,
        help="comma-separated stock models (default: gpm,epoch,sbrp)",
    )
    parser.add_argument(
        "--mutants", default=None,
        help="comma-separated mutant names (default: all; 'none' disables)",
    )
    parser.add_argument(
        "--batch-size", type=positive_int, default=DEFAULT_BATCH,
        help="programs per job; fixed partition, independent of --workers",
    )
    parser.add_argument(
        "--crash-points", type=positive_int, default=48,
        help="evenly spaced crash instants per run, imaged only under a "
        "fault injector (fault-free runs image t = 0 and every persist "
        "acceptance, which is exact); must be >= 1 (default 48)",
    )
    parser.add_argument(
        "--no-shrink", action="store_true",
        help="skip counterexample minimization",
    )
    parser.add_argument("--list-mutants", action="store_true")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    def names(flag: str, text: str, known: Sequence[str]) -> List[str]:
        given = text.split(",")
        unknown = [name for name in given if name not in known]
        if unknown:
            parser.error(
                f"{flag}: unknown {', '.join(unknown)}; have {', '.join(known)}"
            )
        repeated = sorted({name for name in given if given.count(name) > 1})
        if repeated:
            # A target named twice would be run and counted twice.
            parser.error(f"{flag}: repeated {', '.join(repeated)}")
        return given

    if args.list_mutants:
        for name, blurb in sorted(describe_mutants().items()):
            print(f"{name:20s} {blurb}")
        return 0

    programs = args.programs
    mutant_programs = args.mutant_programs
    variants = list(VARIANTS)
    if args.smoke:
        programs = min(programs, 30)
        mutant_programs = min(mutant_programs, 10)
        variants = list(SMOKE_VARIANTS)
    models = (
        [
            ModelName(m)
            for m in names("--models", args.models, [m.value for m in ModelName])
        ]
        if args.models
        else list(STOCK_MODELS)
    )
    if args.mutants is None:
        mutants = mutant_names()
    elif args.mutants == "none":
        mutants = []
    else:
        mutants = names("--mutants", args.mutants, mutant_names())

    executor = Executor(workers=args.workers)
    report = build_report(
        programs=programs,
        seed=args.seed,
        mutant_programs=mutant_programs,
        batch_size=args.batch_size,
        crash_points=args.crash_points,
        variants=variants,
        models=models,
        mutants=mutants,
        executor=executor,
        shrink=not args.no_shrink,
    )
    text = render_report(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        if not args.quiet:
            print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    if not args.quiet:
        print(executor.footer(), file=sys.stderr)
        summary = report["summary"]
        print(
            f"stock violations: {summary['stock_violations']}; mutants "
            f"caught: {summary['mutants_caught']}/{summary['mutants_total']}",
            file=sys.stderr,
        )
    return 0 if report["summary"]["ok"] else 1


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
