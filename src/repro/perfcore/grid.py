"""The scenario grid whose fingerprints are pinned.

Every cell is a plain-JSON payload (so it crosses process boundaries
and lands in reports verbatim) that :func:`run_cell` executes and
reduces to a fingerprint.  The grid covers five cell kinds:

* **sim** — 3 persistency models x {gpkvs, reduction, scan} on shrunk
  app sizes;
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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping

from repro.common.config import ModelName

from repro.perfcore.fingerprint import fingerprint

#: Models of the grid, in suite order.
GRID_MODELS = (ModelName.GPM, ModelName.EPOCH, ModelName.SBRP)

#: Shrunk app parameters of the sim cells.
SIM_PARAMS: Dict[str, Dict[str, Any]] = {
    "gpkvs": dict(n_pairs=256, capacity=512, rounds=2),
    "reduction": dict(blocks=6, per_thread=4),
    "scan": dict(blocks=8),
}

#: Crash points sampled per litmus variant (matches the bench case).
LITMUS_CRASH_POINTS = 12

#: Fuzzed litmus stream of the full grid, as (seed, count).  Directed
#: corpus programs alone missed timing-core divergences that random
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
class GridCell:
    """One grid cell: a named payload of a known kind."""

    name: str
    kind: str  # "sim" | "litmus" | "fault" | "serve" | "soak"
    payload: Dict[str, Any]

    def to_json(self) -> Dict[str, Any]:
        return {"name": self.name, "kind": self.kind, "payload": self.payload}


def _sim_cells(models) -> List[GridCell]:
    return [
        GridCell(
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


def _litmus_cells(models, programs) -> List[GridCell]:
    from repro.check.enumerator import SMOKE_VARIANTS

    variants = [variant.to_json() for variant in SMOKE_VARIANTS]
    return [
        GridCell(
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


def _fault_cells(models) -> List[GridCell]:
    """A power cut under every model, plus a torn persist under SBRP."""
    from repro.faults.plans import PowerCutPlan, TornPersistPlan

    plans = [(model, "powercut", PowerCutPlan()) for model in models]
    plans.append((ModelName.SBRP, "torn", TornPersistPlan()))
    return [
        GridCell(
            name=f"fault.{model.value}.gpkvs.{label}",
            kind="fault",
            payload={
                "model": model.value,
                "app": "gpkvs",
                "params": dict(FAULT_PARAMS),
                "fault": dict(
                    plan.to_json(), max_crash_points=FAULT_MAX_CRASH_POINTS
                ),
            },
        )
        for model, label, plan in plans
    ]


def _serve_cells(models) -> List[GridCell]:
    return [
        GridCell(
            name=f"serve.{model.value}.kvs",
            kind="serve",
            payload={"model": model.value, "params": dict(SERVE_PARAMS)},
        )
        for model in models
    ]


def _soak_cells(models) -> List[GridCell]:
    from repro.faults.soak import brownout_burst

    soak = {
        "timeline": brownout_burst().to_json(),
        "crash_every_batches": SOAK_CRASH_EVERY_BATCHES,
        "crash_fraction": SOAK_CRASH_FRACTION,
    }
    return [
        GridCell(
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


def build_grid() -> List[GridCell]:
    """The grid, in stable sweep order."""
    from repro.check.corpus import corpus_programs
    from repro.check.fuzzer import generate_stream

    corpus = corpus_programs()
    return (
        _sim_cells(GRID_MODELS)
        + _litmus_cells(GRID_MODELS, corpus)
        + _litmus_cells([ModelName.SBRP], generate_stream(*LITMUS_FUZZ_STREAM))
        + _fault_cells(GRID_MODELS)
        + _serve_cells(GRID_MODELS)
        + _soak_cells([ModelName.SBRP])
    )


def run_cell(cell_json: Mapping[str, Any]) -> Dict[str, Any]:
    """Fingerprint one cell; top-level so worker processes can run it."""
    return fingerprint(cell_json["kind"], cell_json["payload"])
