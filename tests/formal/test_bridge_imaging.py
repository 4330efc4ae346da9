"""The bridge's imaging rule: unless the fault plan tears lines, crash
images change only when a persist is accepted.

``simulate_program`` images a run at t = 0, at every persist-log
boundary, at every dFence completion and at the end.  Under a plan that
declares tearing it adds ``crash_points`` evenly spaced instants,
because a line still in the WPQ window may tear.  An injector whose plan
declares tearing but never fires leaves the run itself unchanged yet
takes the spaced-instant path, so the two observations must be equal: a
spaced instant that revealed an image the boundaries miss would break
that.
"""

from dataclasses import dataclass
from typing import ClassVar

import pytest

from repro.check.corpus import corpus_programs
from repro.check.enumerator import SMOKE_VARIANTS
from repro.check.fuzzer import generate_stream
from repro.common.config import ModelName
from repro.faults.injector import build_injector
from repro.faults.plans import PowerCutPlan
from repro.formal.bridge import base_config, simulate_program
from repro.formal.events import LitmusProgram
from repro.memory.subsystem import MemorySubsystem

PROGRAMS = corpus_programs() + generate_stream(5, 40)


@dataclass(frozen=True)
class TearsNothing(PowerCutPlan):
    """Declares tearing, but only a TornPersistPlan tears a record."""

    tears: ClassVar[bool] = True


def never_fires():
    """A tearing injector whose plan injects nothing."""
    return build_injector(TearsNothing())


def run(program, model, variant, faults=None):
    return simulate_program(
        program,
        model,
        config=variant.configure(base_config(program, model)),
        faults=faults,
        thread_order=variant.thread_order(program),
    )


@pytest.mark.parametrize("model", list(ModelName), ids=lambda m: m.value)
def test_boundaries_reveal_every_image(model):
    mismatches = []
    for program in PROGRAMS:
        for variant in SMOKE_VARIANTS:
            faults = never_fires()
            plain = run(program, model, variant)
            spaced = run(program, model, variant, faults)
            assert faults.counts == {}
            if plain != spaced:
                mismatches.append((program.name, variant.name))
    assert mismatches == []


@pytest.fixture
def instants(monkeypatch):
    """How many instants each ``crash_images`` call images, in order."""
    counts = []
    original = MemorySubsystem.crash_images

    def counting(self, times):
        counts.append(len(times))
        return original(self, times)

    monkeypatch.setattr(MemorySubsystem, "crash_images", counting)
    return counts


def test_injected_run_images_the_spaced_instants(instants):
    program = corpus_programs()[0]
    simulate_program(program, crash_points=48)
    simulate_program(program, crash_points=48, faults=never_fires())
    plain, spaced = instants
    assert plain < 49 < spaced


def test_non_tearing_run_images_only_the_boundaries(instants):
    program = corpus_programs()[0]
    plain = simulate_program(program, crash_points=48)
    cut = simulate_program(
        program,
        crash_points=48,
        faults=build_injector(PowerCutPlan()),
    )
    assert instants[0] == instants[1] < 49
    assert cut == plain


def test_all_zero_image_at_t0_is_observed():
    """The first persist lands well after t = 0, and the image before it
    is still observed, at t = 0.0."""
    program = LitmusProgram("late_first_persist")
    program.thread(block=0).w("vX", 1).dfence().w("pA", 1).w("pB", 2)
    obs = simulate_program(program, ModelName.SBRP)
    assert obs.images[0] == (0.0, {"pA": 0, "pB": 0})
    first_persist = obs.images[1][0]
    assert first_persist > 0.0
    assert obs.images[-1][1] == {"pA": 1, "pB": 2}
    assert obs.final_image == {"pA": 1, "pB": 2}

