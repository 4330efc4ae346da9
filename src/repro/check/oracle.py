"""The differential oracle: operational observations vs axiomatic sets.

Three checks, in increasing order of witness-specificity:

1. **Unconstrained soundness** — every crash image the simulator ever
   produced must be allowed by *some* synchronization witness with *no*
   dFence-completion assumption (a crash can land before any fence
   completes).  An observed-but-forbidden image means the hardware
   model violates Box 2.

2. **dFence obligation** — at the instant a dFence completed, the
   durable image must be allowed under the *observed* witness with that
   fence (and every earlier-completing one) marked completed.  Checking
   at the completion instant is exact: durable sets only grow, so a
   violation visible later was already visible then.

3. **Final completeness** — after ``sync()`` the image must be one of
   the fully-drained images of the observed witness: every executed
   persist durable, only the per-location choice among pmo-maximal
   writes free.  This is the check that catches "acknowledged but never
   written" drains, which check 1 cannot see (the empty image is always
   an allowed *subset*).

Coverage (allowed-but-never-observed images) is reported but is not a
failure: a timing simulator legitimately explores one schedule per
configuration.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.common.config import ModelName
from repro.common.errors import ConfigError, LitmusError
from repro.formal.crash_states import allowed_crash_images, allowed_final_images
from repro.formal.bridge import ImageKey, image_key, pm_locations
from repro.formal.events import LitmusProgram, all_reads_from
from repro.formal.relations import ExecutionWitness

from repro.check.enumerator import Variant, observe
from repro.check.mutants import build_mutant

#: Canonical image form: sorted (loc, value) pairs, zeros dropped — the
#: initial value of every location is zero, so "absent" and "zero" are
#: the same durable state.
NormImage = Tuple[Tuple[str, int], ...]


def normalize(image: Dict[str, int]) -> NormImage:
    return tuple(sorted((k, v) for k, v in image.items() if v != 0))


#: Allowed-image memo for one program: (sorted reads-from items, sorted
#: completed dFences, or None for the final images) -> allowed keys.
AllowedMemo = Dict[Tuple[Any, Optional[Tuple[int, ...]]], Set[ImageKey]]


def _allowed(
    witness: ExecutionWitness,
    completed: Optional[List[int]],
    memo: AllowedMemo,
    locations: Sequence[str],
) -> Set[ImageKey]:
    """Allowed crash images of *witness* with *completed* dFences, or
    its final images when *completed* is None, in key form over
    *locations*; memoised."""
    key = (
        tuple(sorted(witness.reads_from.items())),
        None if completed is None else tuple(sorted(completed)),
    )
    if key not in memo:
        images = (
            allowed_final_images(witness)
            if completed is None
            else allowed_crash_images(witness, completed)
        )
        memo[key] = {image_key(image, locations) for image in images}
    return memo[key]


def allowed_unconstrained(
    program: LitmusProgram, completed: Sequence[int] = ()
) -> Set[NormImage]:
    """Union over every feasible witness of the allowed crash images,
    with the dFences whose eids are in *completed* treated as completed
    before the crash."""
    allowed: Set[NormImage] = set()
    for reads_from in all_reads_from(program):
        try:
            images = allowed_crash_images(
                ExecutionWitness(program, reads_from), completed
            )
        except LitmusError:
            continue  # infeasible witness (cyclic vmo/pmo)
        allowed.update(normalize(image) for image in images)
    return allowed


def allowed_keys(
    program: LitmusProgram, completed: Sequence[int] = ()
) -> Set[ImageKey]:
    """:func:`allowed_unconstrained` in key form over the program's
    :func:`~repro.formal.bridge.pm_locations`: what
    :func:`check_observation` judges a run's images against."""
    locations = pm_locations(program)
    return {
        image_key(dict(image), locations)
        for image in allowed_unconstrained(program, completed)
    }


def _named(locations: Sequence[str], key: ImageKey) -> Dict[str, int]:
    """A key's nonzero values by location: the normalised image a
    report names."""
    return {loc: value for loc, value in zip(locations, key) if value}


#: The last checked program's content key, its unconstrained allowed
#: keys and its witness memo.  Both depend on the program alone, never
#: on the model, mutant or variants, so checking one program under
#: several targets in a row derives them once.
_last: Tuple[Any, Set[ImageKey], AllowedMemo] = (None, set(), {})


def _program_sets(program: LitmusProgram) -> Tuple[Set[ImageKey], AllowedMemo]:
    """*program*'s unconstrained allowed keys and witness memo, reused
    while the same program content is checked again.  The key is each
    thread's block and its events with their eids: every input of the
    axiomatic model, and nothing else (the name is not one)."""
    global _last
    key = tuple((t.block, tuple(t.events)) for t in program.threads)
    if _last[0] != key:
        _last = (key, allowed_keys(program), {})
    return _last[1], _last[2]


def check_observation(
    program: LitmusProgram,
    observation: Any,
    allowed: Set[ImageKey],
    variant_name: str,
    memo: AllowedMemo,
    observed: Optional[Set[ImageKey]] = None,
) -> List[Dict[str, Any]]:
    """All three oracle checks against one simulator run; *allowed* is
    :func:`allowed_keys` of *program*, and *memo* is shared by every run
    of the same program.  Each crash image is also added to *observed*,
    when given (coverage).  Images are judged in the observation's key
    form; a violation names the offending image's nonzero values."""
    violations: List[Dict[str, Any]] = []
    locations = observation.locations
    for time, key in observation.keys:
        if observed is not None:
            observed.add(key)
        if key not in allowed:
            violations.append(
                {
                    "type": "soundness",
                    "variant": variant_name,
                    "time": time,
                    "image": _named(locations, key),
                }
            )
    reads_from = observation.reads_from
    if len(reads_from) != observation.acquires or None in reads_from.values():
        # Some acquire's observed value mapped to no known release
        # (foreign writes to flag locations — the fuzzer never generates
        # these, but directed programs might): no witness to judge.
        return violations
    witness = ExecutionWitness(program, dict(reads_from))
    try:
        completed: List[int] = []
        for eid, (time, key) in sorted(
            observation.dfence_keys.items(), key=lambda kv: (kv[1][0], kv[0])
        ):
            completed.append(eid)
            if key not in _allowed(witness, completed, memo, locations):
                violations.append(
                    {
                        "type": "dfence",
                        "variant": variant_name,
                        "time": time,
                        "image": _named(locations, key),
                    }
                )
        final = observation.final_key
        if final not in _allowed(witness, None, memo, locations):
            violations.append(
                {
                    "type": "final",
                    "variant": variant_name,
                    "image": _named(locations, final),
                }
            )
    except LitmusError as err:
        # The run synchronized in a way the axioms call infeasible.
        violations.append(
            {
                "type": "witness_error",
                "variant": variant_name,
                "error": str(err),
            }
        )
    return violations


def check_program(
    program: LitmusProgram,
    model: ModelName,
    variants: List[Variant],
    crash_points: int = 48,
    mutant: Optional[str] = None,
) -> Dict[str, Any]:
    """Run *program* under every variant and apply the oracle.

    Returns a plain-JSON report; ``violations`` is the total count
    across variants (0 = the model refined its spec on this program).
    The last program's allowed sets are kept, so checking the same
    program next, under any model or mutant, derives none of them again;
    witness-specific sets are computed once per distinct query.
    A simulation that dies (deadlock, livelock, drain stall) counts as
    a violation too — mutants are allowed to wedge the machine, and a
    wedge on an unmodified model is exactly what the harness is for.
    """
    if mutant is not None and model is not ModelName.SBRP:
        raise ConfigError(
            f"mutant {mutant!r} mutates SBRP; it cannot run under {model.value}"
        )
    model_factory = build_mutant(mutant) if mutant is not None else None
    allowed, memo = _program_sets(program)
    observed: Set[NormImage] = set()
    variant_reports: List[Dict[str, Any]] = []
    sim_cycles = 0.0
    observations = observe(
        program, model, variants, crash_points=crash_points, model_factory=model_factory
    )
    # Variants that shared a run share its observation: each distinct
    # one is judged once, and its violations relabelled per variant.
    judged: Dict[int, List[Dict[str, Any]]] = {}
    for variant, obs in zip(variants, observations):
        if isinstance(obs, Exception):
            failure = {
                "type": "simulation_error",
                "variant": variant.name,
                "error": f"{type(obs).__name__}: {obs}",
            }
            variant_reports.append({"variant": variant.name, "violations": [failure]})
            continue
        sim_cycles += obs.end
        violations = judged.get(id(obs))
        if violations is None:
            violations = judged[id(obs)] = check_observation(
                program, obs, allowed, variant.name, memo, observed
            )
        variant_reports.append(
            {
                "variant": variant.name,
                "end": obs.end,
                "violations": [dict(v, variant=variant.name) for v in violations],
            }
        )
    locations = pm_locations(program)
    never_observed = sorted(
        normalize(dict(zip(locations, key))) for key in allowed - observed
    )
    return {
        "program": program.name,
        "ops": program.op_count(),
        "model": model.value,
        "mutant": mutant,
        "violations": sum(len(v["violations"]) for v in variant_reports),
        "variants": variant_reports,
        "coverage": {
            "allowed": len(allowed),
            "observed_allowed": len(observed & allowed),
            "never_observed": [dict(n) for n in never_observed[:8]],
        },
        "sim_cycles": sim_cycles,
    }


def failing_variants(report: Dict[str, Any]) -> List[str]:
    """Names of variants with at least one violation, in sweep order."""
    return [
        v["variant"] for v in report["variants"] if v["violations"]
    ]
