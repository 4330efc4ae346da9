"""The litmus library: expectations as data, judged by the one oracle."""

import pytest

from repro.check.corpus import (
    EXPECTATIONS,
    LIBRARY,
    corpus_programs,
    library_program,
    unmet_expectations,
)
from repro.check.oracle import allowed_unconstrained, check_observation
from repro.common.config import ModelName
from repro.formal.bridge import simulate_program
from repro.formal.bug_detector import find_scope_bugs
from repro.formal.events import LitmusProgram


@pytest.mark.parametrize("name", list(LIBRARY))
def test_library_entry_meets_its_expectation(name):
    program = library_program(name)
    expectation = EXPECTATIONS[name]
    assert unmet_expectations(program, expectation) == []
    assert bool(find_scope_bugs(program)) == expectation.scope_bug


def test_expectation_check_has_teeth():
    # mp_ofence's expectation against the same writes without the fence.
    unfenced = LitmusProgram("mp_unfenced")
    unfenced.thread(block=0).w("pData", 1).w("pFlag", 1)
    assert unmet_expectations(unfenced.validate(), EXPECTATIONS["mp_ofence"]) == [
        ("forbidden", {"pFlag": 1, "pData": 0})
    ]


def test_required_image_missing_is_reported():
    expectation = EXPECTATIONS["scope_mismatch"]
    fixed = library_program("device_release_cross_block")
    assert unmet_expectations(fixed, expectation) == [
        ("required", {"pB": 1, "pA": 0})
    ]


def test_library_covers_the_papers_examples():
    # Section 5.3's scoped bug (and its fix), Figure 4's logging
    # discipline, transitivity and dFence durability.
    for name in (
        "scope_mismatch",
        "device_release_cross_block",
        "mp_ofence",
        "transitive_chain",
        "dfence_split",
    ):
        assert name in LIBRARY


def test_corpus_is_unchanged_and_excludes_the_paper_only_programs():
    assert [program.name for program in corpus_programs()] == [
        "mp_ofence_split",
        "block_release_pm_flag",
        "device_release_pm_flag",
        "device_release_consumer",
        "block_release_consumer",
        "scope_mismatch",
        "dfence_then_write",
        "dfence_split",
        "overwrite_chain",
        "unfenced_pair",
        "transitive_chain",
    ]


@pytest.mark.parametrize("name", ["mp_ofence", "block_release_consumer"])
@pytest.mark.parametrize(
    "model", [ModelName.SBRP, ModelName.EPOCH], ids=lambda m: m.value
)
def test_simulator_refines_model(name, model):
    program = library_program(name)
    observation = simulate_program(program, model)
    violations = check_observation(
        program, observation, allowed_unconstrained(program), "base", {}
    )
    assert violations == []


def test_simulation_reaches_final_state():
    observation = simulate_program(library_program("mp_ofence"), ModelName.SBRP)
    assert observation.final_image == {"pData": 1, "pFlag": 1}
    assert {"pData": 1, "pFlag": 1} in observation.image_dicts()
