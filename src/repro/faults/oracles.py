"""Recovery oracles: classify every post-crash outcome **by type**.

Two oracle families cross-check each injected run:

* the **application oracle** is :func:`repro.crash.recover`: it boots a
  fresh machine from the crash image, runs the app's recovery kernel,
  and checks the app's own consistency invariants — the paper's
  *recoverability* criterion (Section 2.2: after any crash, recovery
  must restore a consistent state).  Its three classes
  (:data:`CONSISTENT`, :data:`APP_VIOLATION`, :data:`RECOVERY_RAISED`)
  and :func:`describe` live in :mod:`repro.crash.harness`;
* the **formal oracle** replays a litmus library program
  (:mod:`repro.check.corpus`) on the (possibly faulted) timing simulator
  and judges the run with the conformance checker's differential oracle
  (:func:`repro.check.oracle.check_observation`): every observed durable
  image must be a reachable crash state, every completed dFence must
  have made its predecessors durable, and the drained final image must
  hold every persist — the paper's *strict persistency* ordering
  criterion.

Classification never inspects exception text: each outcome is decided
by exception type alone, so a reworded message can never silently change
a campaign verdict.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.common.config import ModelName
from repro.common.errors import (
    FaultInjectionError,
    LivelockError,
    PersistencyError,
    ReproError,
    SimulationError,
)
from repro.crash.harness import (
    APP_VIOLATION,
    CONSISTENT,
    RECOVERY_RAISED,
    describe,
)

# ----------------------------------------------------------------------
# outcome classifications
# ----------------------------------------------------------------------
#: The simulator's run broke the axiomatic model: a durable image it
#: forbids, or a dFence or final durability obligation left unmet.
UNREACHABLE_STATE = "unreachable_state"
#: The injected run wedged: livelock, deadlock, or cycle-budget blowout.
HUNG = "hung"
#: The injection escalated to a typed FaultInjectionError.
FAULT_RAISED = "fault_raised"
#: A persistency-model invariant tripped during the injected run.
MODEL_ERROR = "model_error"
#: The worker process running the job died (crash isolation caught it).
JOB_FAILED = "job_failed"
#: The injected run finished; crash points decide the outcome.
RUN_COMPLETED = "completed"

CLASSIFICATIONS = (
    CONSISTENT,
    APP_VIOLATION,
    UNREACHABLE_STATE,
    RECOVERY_RAISED,
    HUNG,
    FAULT_RAISED,
    MODEL_ERROR,
    JOB_FAILED,
)

#: Classifications that count as *inconsistent* for campaign verdicts.
INCONSISTENT_CLASSES = frozenset(
    {APP_VIOLATION, UNREACHABLE_STATE, RECOVERY_RAISED}
)


def classify_run_exception(exc: ReproError) -> str:
    """Classify an exception raised by the *injected run* itself.

    Order matters: :class:`LivelockError` subclasses
    :class:`SimulationError`, :class:`TornPersistError` subclasses
    :class:`FaultInjectionError`.
    """
    if isinstance(exc, LivelockError):
        return HUNG
    if isinstance(exc, FaultInjectionError):
        return FAULT_RAISED
    if isinstance(exc, PersistencyError):
        return MODEL_ERROR
    if isinstance(exc, SimulationError):
        return HUNG
    return MODEL_ERROR


# ----------------------------------------------------------------------
# formal oracle
# ----------------------------------------------------------------------
def run_litmus_oracle(
    test_name: str,
    model: ModelName,
    plan: Optional[Any] = None,
) -> Dict[str, Any]:
    """Cross-validate simulator crash images against the formal model.

    Runs the library program *test_name* on the timing simulator
    (optionally under the fault *plan*) and reports every violation the
    differential oracle finds in the run — soundness, dFence and final
    completeness — plus any statically detectable scoped-persistency
    misuse in the program itself.
    """
    from repro.check.corpus import library_program
    from repro.check.oracle import allowed_keys, check_observation
    from repro.faults.injector import build_injector
    from repro.formal.bridge import simulate_program
    from repro.formal.bug_detector import find_scope_bugs

    program = library_program(test_name)
    observation = simulate_program(program, model, faults=build_injector(plan))
    violations = check_observation(
        program, observation, allowed_keys(program), "base", {}
    )
    return {
        "test": test_name,
        "model": model.value,
        "plan": plan.to_json() if plan is not None else None,
        "classification": UNREACHABLE_STATE if violations else CONSISTENT,
        "violations": violations,
        "scope_bugs": sorted(str(bug) for bug in find_scope_bugs(program)),
    }
