"""Worker-side batch runner for conformance jobs.

A check job's spec is plain JSON — serialized programs, variant list,
stock model names, SBRP mutant names — so batches cross process
boundaries through the shared :class:`~repro.exec.executor.Executor`
exactly like scenario/recovery/fault jobs do.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Tuple

from repro.common.config import ModelName
from repro.formal.events import LitmusProgram

from repro.check.enumerator import Variant
from repro.check.oracle import check_program

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.bench.runner import ScenarioResult


def run_check_batch(spec: Mapping[str, Any]) -> "ScenarioResult":
    """Execute one conformance batch; returns a plain-JSON result.

    Program-major: each program is checked under every stock model in
    *spec*'s ``models``, then under every SBRP mutant in ``mutants``,
    before the next program, so the oracle derives each program's
    allowed sets once."""
    from repro.bench.runner import ScenarioResult

    programs = [LitmusProgram.from_json(p) for p in spec["programs"]]
    targets: List[Tuple[ModelName, Optional[str]]] = [
        (ModelName(model), None) for model in spec["models"]
    ] + [(ModelName.SBRP, mutant) for mutant in spec["mutants"]]
    variants = [Variant.from_json(v) for v in spec["variants"]]
    crash_points = int(spec.get("crash_points", 48))

    reports = [
        check_program(
            program, model, variants, crash_points=crash_points, mutant=mutant
        )
        for program in programs
        for model, mutant in targets
    ]
    violations = sum(r["violations"] for r in reports)
    sim_cycles = sum(r["sim_cycles"] for r in reports)
    stats: Dict[str, float] = {
        "check.programs": float(len(programs)),
        "check.variants": float(len(variants)),
        "check.violations": float(violations),
        "check.sim_cycles": sim_cycles,
    }
    return ScenarioResult(
        app="conformance",
        label=",".join([*spec["models"], *spec["mutants"]]),
        cycles=sim_cycles,
        stats=stats,
        detail={"programs": reports},
    )
