"""Explore the formal SBRP model with the litmus library.

For each program in the library, prints every crash image the axiomatic
model allows, checks the program's expectation (forbidden and required
partial images), then runs it on the timing simulator and judges the
run with the differential oracle (the simulator must never produce a
forbidden image, and must honour every dFence and drain).

Run:  python examples/litmus_explorer.py
"""

from repro import ModelName
from repro.check.corpus import (
    EXPECTATIONS,
    LIBRARY,
    library_program,
    unmet_expectations,
)
from repro.check.oracle import allowed_unconstrained, check_observation
from repro.formal.bridge import simulate_program


def main() -> None:
    failures = 0
    for name in LIBRARY:
        program = library_program(name)
        allowed = allowed_unconstrained(program)
        print(f"== {name} ==")
        for image in sorted(allowed):
            pretty = ", ".join(f"{k}={v}" for k, v in image)
            print(f"   allowed: {{{pretty or 'initial state'}}}")
        unmet = unmet_expectations(program, EXPECTATIONS[name])
        print(f"   model check: {'PASS' if not unmet else f'FAIL {unmet}'}")
        observation = simulate_program(program, ModelName.SBRP)
        bad = check_observation(program, observation, allowed, "base", {})
        print(
            "   simulator refines model: "
            + ("yes" if not bad else f"NO - violations {bad}")
        )
        failures += bool(unmet) + bool(bad)
    if failures:
        raise SystemExit(f"litmus_explorer: {failures} failures")
    print("litmus_explorer OK")


if __name__ == "__main__":
    main()
