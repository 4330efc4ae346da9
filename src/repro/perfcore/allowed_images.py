"""Allowed-image sets of the axiomatic model over a fixed program set.

For the directed corpus and the fuzzed streams ``generate_stream(1,
300)`` and ``generate_stream(44, 300)``, :func:`render` records every
witness's allowed final images and its allowed crash images under every
subset of the program's dFences marked completed (or, for an infeasible
witness, its ``LitmusError`` message).  It is the exact contents of the
``allowed_images`` pin (see :mod:`repro.perfcore.goldens`): any change
to how relations or crash images are computed must leave it unchanged.
"""

import itertools
import json
from typing import Any, Dict, List

from repro.check.corpus import corpus_programs
from repro.check.fuzzer import generate_stream
from repro.common.errors import LitmusError
from repro.formal.crash_states import allowed_crash_images, allowed_final_images
from repro.formal.events import EventKind, LitmusProgram, all_reads_from
from repro.formal.relations import ExecutionWitness


def _programs() -> List[LitmusProgram]:
    return corpus_programs() + generate_stream(1, 300) + generate_stream(44, 300)


def _witness_entry(program: LitmusProgram, reads_from, dfences) -> Dict[str, Any]:
    witness = ExecutionWitness(program, reads_from)
    entry: Dict[str, Any] = {"reads_from": sorted(reads_from.items())}
    try:
        entry["final"] = allowed_final_images(witness)
        entry["crash"] = [
            {
                "completed": list(subset),
                "images": allowed_crash_images(witness, subset),
            }
            for size in range(len(dfences) + 1)
            for subset in itertools.combinations(dfences, size)
        ]
    except LitmusError as err:
        entry = {"reads_from": entry["reads_from"], "error": str(err)}
    return entry


def render() -> str:
    """The pin file's exact contents, recomputed from the model."""
    pinned = {}
    for program in _programs():
        dfences = [e.eid for e in program.events() if e.kind is EventKind.DFENCE]
        pinned[program.name] = [
            _witness_entry(program, reads_from, dfences)
            for reads_from in all_reads_from(program)
        ]
    return json.dumps(pinned, sort_keys=True, separators=(",", ":")) + "\n"
