"""``check_program`` simulates each distinct machine once per call and
derives a program's allowed sets once while it is checked in a row.

Variants that build the same machine (SBRP-only knobs under GPM/Epoch,
a reversed block of one thread) share one run.  The report must equal
one assembled from a separate simulation per variant.  The allowed sets
of the last program checked are kept for the next check of the same
program content, under any model or mutant; reports must not change.
"""

import pytest

from repro.check import enumerator, oracle
from repro.check.corpus import corpus_programs
from repro.check.enumerator import SMOKE_VARIANTS, VARIANTS, observe
from repro.check.oracle import (
    allowed_keys,
    check_observation,
    check_program,
    normalize,
)
from repro.check.mutants import mutant_names
from repro.common.config import ModelName
from repro.common.errors import ConfigError
from repro.formal import bridge
from repro.formal.bridge import simulate_program
from repro.formal.events import LitmusProgram
from repro.system import GPUSystem


def program(name):
    return next(p for p in corpus_programs() if p.name == name)


@pytest.fixture
def derivations(monkeypatch):
    """Counts derivations of a program's unconstrained allowed set, and
    starts from an empty last-program memo."""
    derived = []
    original = oracle.allowed_unconstrained

    def counting(program, *args):
        derived.append(program.name)
        return original(program, *args)

    monkeypatch.setattr(oracle, "allowed_unconstrained", counting)
    monkeypatch.setattr(oracle, "_last", (None, set(), {}))
    return derived


def cold_check(prog, model, mutant=None):
    """``check_program`` with the last-program memo cleared first."""
    oracle._last = (None, set(), {})
    return check_program(prog, model, list(SMOKE_VARIANTS), mutant=mutant)


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
    allowed = allowed_keys(prog)
    memo = {}
    observed = set()
    reports = []
    sim_cycles = 0.0
    for variant in variants:
        (obs,) = observe(prog, model, [variant], crash_points=crash_points)
        sim_cycles += obs.end
        observed.update(key for _, key in obs.keys)
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
            "never_observed": [
                dict(n)
                for n in sorted(
                    normalize(obs.named(key)) for key in allowed - observed
                )[:8]
            ],
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


@pytest.fixture
def judgements(monkeypatch):
    """Counts ``check_observation`` calls made by ``check_program``."""
    judged = []
    original = oracle.check_observation

    def counting(*args, **kwargs):
        judged.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(oracle, "check_observation", counting)
    return judged


@pytest.mark.parametrize(
    "name, model, variants, machines",
    [
        ("block_release_consumer", ModelName.GPM, SMOKE_VARIANTS, 3),
        ("device_release_consumer", ModelName.SBRP, SMOKE_VARIANTS, 3),
        ("block_release_consumer", ModelName.SBRP, SMOKE_VARIANTS, 4),
        ("mp_ofence_split", ModelName.GPM, VARIANTS, 2),
    ],
)
def test_each_machine_is_judged_once(
    constructions, judgements, name, model, variants, machines
):
    report = check_program(program(name), model, list(variants))
    assert len(report["variants"]) == len(variants)
    assert len(constructions) == machines
    assert len(judgements) == machines


def test_observe_derives_the_program_setup_once(monkeypatch):
    """One ``observe`` call validates the program and derives its
    layout, release map, warp slots and leader mask once for all its
    runs; the next call derives them again."""
    derived = []

    class CountingSetup(bridge.ProgramSetup):
        def __init__(self, program):
            derived.append(program.name)
            super().__init__(program)

    monkeypatch.setattr(bridge, "ProgramSetup", CountingSetup)
    monkeypatch.setattr(enumerator, "ProgramSetup", CountingSetup)
    prog = program("block_release_consumer")
    observations = observe(prog, ModelName.SBRP, list(SMOKE_VARIANTS))
    assert len({id(obs) for obs in observations}) == 4  # four machines
    assert derived == [prog.name]
    observe(prog, ModelName.SBRP, list(SMOKE_VARIANTS))
    assert derived == [prog.name] * 2


def test_setup_of_another_program_is_rejected():
    setup = bridge.ProgramSetup(program("mp_ofence_split"))
    with pytest.raises(ConfigError):
        simulate_program(program("dfence_split"), setup=setup)


def test_shared_run_violations_carry_each_variant_name():
    """A mutant's violations on a shared run are judged once and
    reported under every variant that shared it, each with its name."""
    # One thread per block: ``reversed`` builds the ``base`` machine.
    report = check_program(
        program("dfence_split"),
        ModelName.SBRP,
        list(SMOKE_VARIANTS),
        mutant="ack_without_flush",
    )
    by_name = {v["variant"]: v["violations"] for v in report["variants"]}
    assert by_name["base"]
    for name, violations in by_name.items():
        assert all(v["variant"] == name for v in violations)
    assert [dict(v, variant="base") for v in by_name["reversed"]] == by_name["base"]


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


TARGETS = [(model, None) for model in ModelName] + [
    (ModelName.SBRP, mutant) for mutant in mutant_names()
]


def test_warm_memo_reports_equal_cold_ones(derivations):
    programs = corpus_programs()
    warm = [
        check_program(prog, model, list(SMOKE_VARIANTS), mutant=mutant)
        for prog in programs
        for model, mutant in TARGETS
    ]
    assert len(derivations) == len(programs)
    cold = [
        cold_check(prog, model, mutant)
        for prog in programs
        for model, mutant in TARGETS
    ]
    assert len(derivations) == len(programs) * (1 + len(TARGETS))
    assert warm == cold


def one_write(name, value):
    prog = LitmusProgram(name)
    prog.thread(block=0).w("pA", value).ofence().w("pB", value)
    return prog


def test_same_name_different_events_do_not_share(derivations):
    first, second = one_write("same", 1), one_write("same", 2)
    check_program(first, ModelName.SBRP, list(SMOKE_VARIANTS))
    report = check_program(second, ModelName.SBRP, list(SMOKE_VARIANTS))
    assert derivations == ["same", "same"]
    assert report["violations"] == 0
    assert report == cold_check(second, ModelName.SBRP)


def test_same_events_under_another_name_share(derivations):
    check_program(one_write("a", 1), ModelName.GPM, list(SMOKE_VARIANTS))
    check_program(one_write("b", 1), ModelName.EPOCH, list(SMOKE_VARIANTS))
    assert derivations == ["a"]


def test_program_extended_after_a_check_is_recomputed(derivations):
    prog = one_write("grown", 1)
    check_program(prog, ModelName.SBRP, list(SMOKE_VARIANTS))
    prog.threads[0].w("pC", 3)
    report = check_program(prog, ModelName.SBRP, list(SMOKE_VARIANTS))
    assert derivations == ["grown", "grown"]
    assert report["violations"] == 0
    assert report == cold_check(prog, ModelName.SBRP)
