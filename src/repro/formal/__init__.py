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
* :mod:`~repro.formal.bug_detector` — static detection of the Section
  5.3 scoped-persistency misuse, and
* :mod:`~repro.formal.bridge` — runs litmus programs on the timing
  simulator and reports what each run revealed (images, witness, dFence
  and final images) for the oracle in :mod:`repro.check.oracle`.

The litmus library with its expectations lives in
:mod:`repro.check.corpus`.
"""

from repro.formal.events import Event, EventKind, LitmusProgram, Thread
from repro.formal.relations import ExecutionWitness, build_pmo, build_po, build_vmo
from repro.formal.crash_states import allowed_crash_images

__all__ = [
    "Event",
    "EventKind",
    "ExecutionWitness",
    "LitmusProgram",
    "Thread",
    "allowed_crash_images",
    "build_pmo",
    "build_po",
    "build_vmo",
]
