"""Executable formal model of SBRP (Boxes 1 and 2 of the paper).

The paper specifies SBRP axiomatically: program order (``po``), volatile
memory order (``vmo``), and persist memory order (``pmo``), with two
derivation rules (intra-thread via ``oFence``; inter-thread via scoped
``pRel``/``pAcq`` pairs) plus transitivity.  This subpackage makes the
specification executable:

* :mod:`~repro.formal.events` — event vocabulary and litmus programs,
* :mod:`~repro.formal.relations` — builds po / vmo / pmo as transitively
  closed relations (one ancestor bitmask per event) for a given
  execution witness,
* :mod:`~repro.formal.crash_states` — enumerates every crash image the
  model permits (order ideals of the pmo DAG),
* :mod:`~repro.formal.litmus` — a litmus-test harness with a library of
  tests covering the paper's examples (message passing, scope
  mismatches, transitivity, dFence), and
* :mod:`~repro.formal.bridge` — runs litmus programs on the timing
  simulator and checks the observed durable states fall within the set
  the axiomatic model allows (model validation).
"""

from repro.formal.events import Event, EventKind, LitmusProgram, Thread
from repro.formal.relations import ExecutionWitness, build_pmo, build_po, build_vmo
from repro.formal.crash_states import allowed_crash_images
from repro.formal.litmus import LITMUS_TESTS, LitmusTest, run_litmus

__all__ = [
    "Event",
    "EventKind",
    "ExecutionWitness",
    "LITMUS_TESTS",
    "LitmusProgram",
    "LitmusTest",
    "Thread",
    "allowed_crash_images",
    "build_pmo",
    "build_po",
    "build_vmo",
    "run_litmus",
]
