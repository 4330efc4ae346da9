"""Canonical per-run fingerprints for the pinned grid.

Each function runs one scenario and reduces the run to a plain-JSON
dict whose equality with its pin *is* the no-behaviour-change claim.
Everything observable goes in — simulated cycles, engine event counts,
the full stats-counter map, a hash of the durable crash image, and (for litmus programs) the complete simulator
observation the conformance oracle consumes.

Fingerprints are deterministic: no wall-clock, no unseeded randomness,
sorted keys throughout.  A scenario that *raises* fingerprints as its
exception type and message, so a broken cell reports what went wrong
instead of aborting the sweep.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping

from repro.common.config import ModelName, PMPlacement, small_system, stable_hash


def _image_items(image: Mapping[str, int]) -> List[List[Any]]:
    """A location->value image as sorted [loc, value] pairs."""
    return [[loc, int(value)] for loc, value in sorted(image.items())]


# ----------------------------------------------------------------------
# cold app simulation
# ----------------------------------------------------------------------
def sim_fingerprint(
    model: str,
    app: str,
    params: Mapping[str, Any],
) -> Dict[str, Any]:
    """Run *app* under *model*; fingerprint everything.

    The run is one cold ``setup`` + ``run`` of the app on a fresh
    ``small_system`` machine (FAR placement), followed by ``sync()``
    and a crash, so the durable image and every stats counter
    participate in the equivalence check, not just timing.
    """
    from repro.apps import build_app
    from repro.system import GPUSystem

    system = GPUSystem(small_system(ModelName(model), PMPlacement.FAR))
    app_obj = build_app(app, **dict(params))
    try:
        app_obj.setup(system)
        app_obj.run(system)
        system.sync()
    except Exception as err:  # noqa: BLE001 - report, don't abort
        return {"error": f"{type(err).__name__}: {err}"}
    image = system.crash()
    return {
        "cycles": system.total_cycles(),
        "events": int(system.stat("engine.events_processed")),
        "stats": dict(sorted(system.stats.snapshot().items())),
        "crash_image_sha256": stable_hash(
            {str(addr): value for addr, value in sorted(image.pm.items())}
        ),
    }


# ----------------------------------------------------------------------
# litmus programs
# ----------------------------------------------------------------------
def litmus_fingerprint(
    program_json: Mapping[str, Any],
    model: str,
    variants_json: List[Mapping[str, Any]],
    crash_points: int,
) -> Dict[str, Any]:
    """Run one corpus program under every variant.

    The fingerprint is the full :class:`SimulationObservation` per
    variant — observed crash images with first-seen times, the witness
    (which release each acquire read), dFence durable images, and the
    final post-drain image.  This is exactly what the conformance
    oracle judges, so equality with the pin means a timing-core change
    cannot move any conformance verdict.
    """
    from repro.check.enumerator import Variant
    from repro.formal.bridge import base_config, simulate_program
    from repro.formal.events import LitmusProgram

    program = LitmusProgram.from_json(dict(program_json))
    name = ModelName(model)
    base = base_config(program, name)
    per_variant: List[Dict[str, Any]] = []
    for variant_json in variants_json:
        variant = Variant.from_json(variant_json)
        config = variant.configure(base)
        try:
            obs = simulate_program(
                program,
                model=name,
                config=config,
                crash_points=crash_points,
                thread_order=variant.thread_order(program),
            )
        except Exception as err:  # noqa: BLE001 - report, don't abort
            per_variant.append(
                {
                    "variant": variant.name,
                    "error": f"{type(err).__name__}: {err}",
                }
            )
            continue
        per_variant.append(
            {
                "variant": variant.name,
                "end": obs.end,
                "images": [
                    [time, _image_items(image)] for time, image in obs.images
                ],
                "final_image": _image_items(obs.final_image),
                "dfence_images": {
                    str(eid): [time, _image_items(image)]
                    for eid, (time, image) in sorted(obs.dfence_images.items())
                },
                "reads_from": {
                    str(eid): source
                    for eid, source in sorted(obs.reads_from.items())
                },
            }
        )
    return {"program": program.name, "variants": per_variant}


# ----------------------------------------------------------------------
# fault-injected scenarios
# ----------------------------------------------------------------------
def fault_fingerprint(
    model: str,
    app: str,
    params: Mapping[str, Any],
    fault: Mapping[str, Any],
) -> Dict[str, Any]:
    """One fault-injected scenario (run + crash/recover/classify sweep).

    The reproducer spec is scrubbed from the hashed detail: it embeds
    the full config dict, a description of the run rather than its
    behaviour.  Every behavioural field — the run classification, each
    crash point's time and classification, the injected-fault counts,
    the outcome — is pinned verbatim.
    """
    from repro.faults.runner import run_fault_scenario

    config = small_system(ModelName(model), PMPlacement.FAR)
    try:
        result = run_fault_scenario(app, config, dict(params), dict(fault))
    except Exception as err:  # noqa: BLE001 - report, don't abort
        return {"error": f"{type(err).__name__}: {err}"}
    detail = dict(result.detail)
    detail.pop("reproducer", None)
    return {
        "cycles": result.cycles,
        "stats": dict(sorted(result.stats.items())),
        "outcome": detail["outcome"],
        "point_counts": detail["point_counts"],
        "detail_sha256": stable_hash(detail),
    }


# ----------------------------------------------------------------------
# serving and soak scenarios
# ----------------------------------------------------------------------
def _scenario_reduction(result: Any) -> Dict[str, Any]:
    """Reduce a ScenarioResult to its behavioural core.  The ``label``
    is deliberately excluded (it names the config, not what the run
    did); cycles, every stat, the structured detail and the run's
    counter snapshot are pinned."""
    return {
        "cycles": result.cycles,
        "stats": dict(sorted(result.stats.items())),
        "detail_sha256": stable_hash(result.detail),
        "metrics_sha256": stable_hash(result.metrics),
    }


def serve_fingerprint(model: str, params: Mapping[str, Any]) -> Dict[str, Any]:
    """One serving-subsystem scenario: stream planning, durable
    transactions with adaptive persist-path selection, SLO pricing and
    the worst-case recovery measurement."""
    from repro.serve.runner import run_serve_scenario

    config = small_system(ModelName(model))
    try:
        result = run_serve_scenario("serve_kvs", config, dict(params))
    except Exception as err:  # noqa: BLE001 - report, don't abort
        return {"error": f"{type(err).__name__}: {err}"}
    return _scenario_reduction(result)


def soak_fingerprint(
    model: str,
    params: Mapping[str, Any],
    soak: Mapping[str, Any],
) -> Dict[str, Any]:
    """One soak chain: a serve stream through a chronic fault timeline
    with crash→recover legs — the heaviest composite path the simulator
    has, covering timeline injection, crash imaging and oracle recovery
    on top of the serve kernels."""
    from repro.faults.soak import run_soak_scenario

    config = small_system(ModelName(model))
    try:
        result = run_soak_scenario(
            "serve_kvs", config, dict(params), dict(soak)
        )
    except Exception as err:  # noqa: BLE001 - report, don't abort
        return {"error": f"{type(err).__name__}: {err}"}
    return _scenario_reduction(result)


# ----------------------------------------------------------------------
# dispatch
# ----------------------------------------------------------------------
def fingerprint(kind: str, payload: Mapping[str, Any]) -> Dict[str, Any]:
    """Fingerprint one grid cell payload."""
    if kind == "sim":
        return sim_fingerprint(payload["model"], payload["app"], payload["params"])
    if kind == "litmus":
        return litmus_fingerprint(
            payload["program"],
            payload["model"],
            payload["variants"],
            int(payload["crash_points"]),
        )
    if kind == "fault":
        return fault_fingerprint(
            payload["model"],
            payload["app"],
            payload["params"],
            payload["fault"],
        )
    if kind == "serve":
        return serve_fingerprint(payload["model"], payload["params"])
    if kind == "soak":
        return soak_fingerprint(payload["model"], payload["params"], payload["soak"])
    raise ValueError(f"unknown grid cell kind {kind!r}")


def diff_paths(pin: Any, got: Any, prefix: str = "", limit: int = 20) -> List[str]:
    """Dotted paths where two fingerprints disagree (bounded list)."""
    out: List[str] = []
    _walk_diff(pin, got, prefix, out, limit)
    return out


def _walk_diff(a: Any, b: Any, prefix: str, out: List[str], limit: int) -> None:
    if len(out) >= limit:
        return
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            path = f"{prefix}.{key}" if prefix else str(key)
            if key not in a or key not in b:
                out.append(path)
                if len(out) >= limit:
                    return
                continue
            _walk_diff(a[key], b[key], path, out, limit)
        return
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            out.append(f"{prefix}.length" if prefix else "length")
            return
        for index, (item_a, item_b) in enumerate(zip(a, b)):
            _walk_diff(item_a, item_b, f"{prefix}[{index}]", out, limit)
            if len(out) >= limit:
                return
        return
    if a != b:
        out.append(prefix or "<root>")
