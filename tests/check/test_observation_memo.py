"""``check_program`` simulates each distinct machine once per call.

Variants that build the same machine (SBRP-only knobs under GPM/Epoch,
a reversed block of one thread) share one run.  The report must equal
one assembled from a separate simulation per variant.
"""

import pytest

from repro.check.corpus import corpus_programs
from repro.check.enumerator import SMOKE_VARIANTS, VARIANTS, observe
from repro.check.oracle import (
    allowed_unconstrained,
    check_observation,
    check_program,
    normalize,
)
from repro.common.config import ModelName
from repro.common.errors import ConfigError
from repro.formal.bridge import simulate_program
from repro.system import GPUSystem


def program(name):
    return next(p for p in corpus_programs() if p.name == name)


@pytest.fixture
def constructions(monkeypatch):
    """Counts ``GPUSystem`` constructions."""
    built = []
    original = GPUSystem.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(GPUSystem, "__init__", counting)
    return built


def per_variant_report(prog, model, variants, crash_points=48):
    """``check_program``'s report, with one ``observe`` per variant."""
    allowed = allowed_unconstrained(prog)
    memo = {}
    observed = set()
    reports = []
    sim_cycles = 0.0
    for variant in variants:
        (obs,) = observe(prog, model, [variant], crash_points=crash_points)
        sim_cycles += obs.end
        observed.update(normalize(image) for image in obs.image_dicts())
        reports.append(
            {
                "variant": variant.name,
                "end": obs.end,
                "violations": check_observation(
                    prog, obs, allowed, variant.name, memo
                ),
            }
        )
    return {
        "program": prog.name,
        "ops": prog.op_count(),
        "model": model.value,
        "mutant": None,
        "violations": sum(len(v["violations"]) for v in reports),
        "variants": reports,
        "coverage": {
            "allowed": len(allowed),
            "observed_allowed": len(observed & allowed),
            "never_observed": [dict(n) for n in sorted(allowed - observed)[:8]],
        },
        "sim_cycles": sim_cycles,
    }


@pytest.mark.parametrize(
    "name, model, machines",
    [
        # two threads in block 0: reversed is its own machine; window1
        # is base under GPM
        ("block_release_consumer", ModelName.GPM, 3),
        # one thread per block: reversed is base
        ("device_release_consumer", ModelName.SBRP, 3),
        ("block_release_consumer", ModelName.SBRP, 4),
    ],
)
def test_smoke_variants_share_machines(constructions, name, model, machines):
    report = check_program(program(name), model, list(SMOKE_VARIANTS))
    assert len(constructions) == machines
    assert [v["variant"] for v in report["variants"]] == [
        v.name for v in SMOKE_VARIANTS
    ]


@pytest.mark.parametrize("model", list(ModelName))
@pytest.mark.parametrize(
    "name", ["block_release_consumer", "device_release_consumer", "dfence_split"]
)
def test_report_equals_one_run_per_variant(name, model):
    prog = program(name)
    assert check_program(prog, model, list(VARIANTS)) == per_variant_report(
        prog, model, list(VARIANTS)
    )


def test_full_sweep_under_gpm_shares_machines(constructions):
    """Under GPM the SBRP-knob variants are base or congested; the
    reversed ones are too when every block holds one thread."""
    check_program(program("mp_ofence_split"), ModelName.GPM, list(VARIANTS))
    assert len(constructions) == 2
    check_program(program("block_release_consumer"), ModelName.GPM, list(VARIANTS))
    assert len(constructions) == 2 + 4  # + reversed, congested_reversed


def test_mutant_under_other_model_is_rejected():
    with pytest.raises(ConfigError):
        check_program(
            program("mp_ofence_split"),
            ModelName.GPM,
            list(SMOKE_VARIANTS),
            mutant="ofence_noop",
        )


@pytest.mark.parametrize("crash_points", [0, -3])
def test_crash_points_below_one_rejected(crash_points):
    prog = program("mp_ofence_split")
    with pytest.raises(ConfigError):
        simulate_program(prog, crash_points=crash_points)
    # A bad argument is raised, not reported as a simulation error.
    with pytest.raises(ConfigError):
        check_program(prog, ModelName.SBRP, list(SMOKE_VARIANTS), crash_points)
