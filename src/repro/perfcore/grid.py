"""The matched scenario grid the differential harness sweeps.

Every cell is a plain-JSON payload (so it crosses process boundaries
and lands in reports verbatim) that :func:`run_cell` executes twice —
once per engine — and reduces to a pair of fingerprints plus a match
verdict.  The grid covers five cell kinds:

* **sim** — 3 persistency models x {gpkvs, reduction, scan}, the same
  shrunk cases the golden-trace tests pin;
* **litmus** — the full conformance corpus under every model, plus a
  fuzzed program stream under SBRP, swept through the smoke variant set
  (the bounded perturbations that make ordering bugs visible);
* **fault** — fault-plan cells (power cut under every model, plus a
  torn-persist cell) whose crash/recover/classify sweep exercises the
  crash-image path end to end;
* **serve** — one serving-subsystem scenario per model (stream
  planning, durable transactions, worst-case recovery measurement);
* **soak** — a soak chain (serve stream through a chronic fault
  timeline with crash→recover legs) under SBRP.

Every cell runs under both engines and the fast fingerprint is diffed
against the reference one.

``--smoke`` keeps the litmus corpus (single model, no fuzzed stream),
one fault cell, one sim cell and one serve cell — the CI
``perfcore-smoke`` job's grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping

from repro.common.config import ModelName

from repro.perfcore.fingerprint import ENGINES, diff_paths, fingerprint

#: Models of the matched grid, in suite order.
GRID_MODELS = (ModelName.GPM, ModelName.EPOCH, ModelName.SBRP)

#: Shrunk app parameters: the same sizes the golden-trace tests pin, so
#: a diff failure here and a golden failure point at the same run.
SIM_PARAMS: Dict[str, Dict[str, Any]] = {
    "gpkvs": dict(n_pairs=256, capacity=512, rounds=2),
    "reduction": dict(blocks=6, per_thread=4),
    "scan": dict(blocks=8),
}

#: Crash points sampled per litmus variant (matches the bench case).
LITMUS_CRASH_POINTS = 12

#: Fuzzed litmus stream of the full grid, as (seed, count).  Directed
#: corpus programs alone miss engine divergences that random
#: programs hit at once.
LITMUS_FUZZ_STREAM = (7, 32)

#: Fault cells run a smaller app: every crash point costs a recovery.
FAULT_PARAMS: Dict[str, Any] = dict(n_pairs=128, capacity=256, rounds=1)
FAULT_MAX_CRASH_POINTS = 6

#: Serve cell: a shrunk serving-subsystem scenario (stream planning +
#: durable transactions + worst-case recovery measurement).
SERVE_PARAMS: Dict[str, Any] = dict(
    n_requests=48, n_keys=48, capacity=128, batch_requests=24
)

#: Soak cell: a shrunk serve stream through the campaign's
#: brownout+burst schedule, crashing inside every second batch.
SOAK_PARAMS: Dict[str, Any] = dict(
    n_requests=48,
    n_keys=48,
    capacity=128,
    batch_requests=12,
    rate_per_kcycle=40.0,
)
SOAK_CRASH_EVERY_BATCHES = 2
SOAK_CRASH_FRACTION = 0.6


@dataclass(frozen=True)
class DiffCell:
    """One differential cell: a named payload of a known kind."""

    name: str
    kind: str  # "sim" | "litmus" | "fault" | "serve" | "soak"
    payload: Dict[str, Any]

    def to_json(self) -> Dict[str, Any]:
        return {"name": self.name, "kind": self.kind, "payload": self.payload}


def _sim_cells(models) -> List[DiffCell]:
    return [
        DiffCell(
            name=f"sim.{model.value}.{app}",
            kind="sim",
            payload={
                "model": model.value,
                "app": app,
                "params": dict(params),
            },
        )
        for model in models
        for app, params in SIM_PARAMS.items()
    ]


def _litmus_cells(models, programs) -> List[DiffCell]:
    from repro.check.enumerator import SMOKE_VARIANTS

    variants = [variant.to_json() for variant in SMOKE_VARIANTS]
    return [
        DiffCell(
            name=f"litmus.{model.value}.{program.name}",
            kind="litmus",
            payload={
                "model": model.value,
                "program": program.to_json(),
                "variants": variants,
                "crash_points": LITMUS_CRASH_POINTS,
            },
        )
        for model in models
        for program in programs
    ]


def _fault_cells(models, torn: bool) -> List[DiffCell]:
    from repro.faults.plans import PowerCutPlan, TornPersistPlan

    cells = [
        DiffCell(
            name=f"fault.{model.value}.gpkvs.powercut",
            kind="fault",
            payload={
                "model": model.value,
                "app": "gpkvs",
                "params": dict(FAULT_PARAMS),
                "fault": dict(
                    PowerCutPlan().to_json(),
                    max_crash_points=FAULT_MAX_CRASH_POINTS,
                ),
            },
        )
        for model in models
    ]
    if torn:
        cells.append(
            DiffCell(
                name="fault.sbrp.gpkvs.torn",
                kind="fault",
                payload={
                    "model": ModelName.SBRP.value,
                    "app": "gpkvs",
                    "params": dict(FAULT_PARAMS),
                    "fault": dict(
                        TornPersistPlan().to_json(),
                        max_crash_points=FAULT_MAX_CRASH_POINTS,
                    ),
                },
            )
        )
    return cells


def _serve_cells(models) -> List[DiffCell]:
    return [
        DiffCell(
            name=f"serve.{model.value}.kvs",
            kind="serve",
            payload={"model": model.value, "params": dict(SERVE_PARAMS)},
        )
        for model in models
    ]


def _soak_cells(models) -> List[DiffCell]:
    from repro.faults.soak import brownout_burst

    soak = {
        "timeline": brownout_burst().to_json(),
        "crash_every_batches": SOAK_CRASH_EVERY_BATCHES,
        "crash_fraction": SOAK_CRASH_FRACTION,
    }
    return [
        DiffCell(
            name=f"soak.{model.value}.kvs",
            kind="soak",
            payload={
                "model": model.value,
                "params": dict(SOAK_PARAMS),
                "soak": soak,
            },
        )
        for model in models
    ]


def build_grid(smoke: bool = False) -> List[DiffCell]:
    """The matched grid, in stable sweep order."""
    from repro.check.corpus import corpus_programs
    from repro.check.fuzzer import generate_stream

    corpus = corpus_programs()
    if smoke:
        return (
            _sim_cells([ModelName.SBRP])[:1]
            + _litmus_cells([ModelName.SBRP], corpus)
            + _fault_cells([ModelName.SBRP], torn=False)
            + _serve_cells([ModelName.SBRP])
        )
    return (
        _sim_cells(GRID_MODELS)
        + _litmus_cells(GRID_MODELS, corpus)
        + _litmus_cells([ModelName.SBRP], generate_stream(*LITMUS_FUZZ_STREAM))
        + _fault_cells(GRID_MODELS, torn=True)
        + _serve_cells(GRID_MODELS)
        + _soak_cells([ModelName.SBRP])
    )


def run_cell(cell_json: Mapping[str, Any]) -> Dict[str, Any]:
    """Run one cell under every engine of the axis; top-level so worker
    processes can execute it.  The report is a pure function of the
    payload: the reference fingerprint is the oracle, and every other
    engine is diffed against it with mismatch paths prefixed by the
    diverging engine's name."""
    kind = cell_json["kind"]
    payload = cell_json["payload"]
    prints = {
        engine: fingerprint(kind, payload, engine) for engine in ENGINES
    }
    reference = prints["reference"]
    mismatches: List[str] = []
    for engine in ENGINES[1:]:
        mismatches.extend(
            f"{engine}:{path}"
            for path in diff_paths(reference, prints[engine])
        )
    report = {
        "name": cell_json["name"],
        "kind": kind,
        "match": not mismatches,
        "mismatches": mismatches,
    }
    report.update(prints)
    return report
