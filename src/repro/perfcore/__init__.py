"""Pinned fingerprints of the timing core's observable behaviour.

Every downstream oracle — conformance, fault campaigns, serving, soak —
assumes exact cycle reproducibility, so the grid of scenarios here is
pinned run by run: cycle counts, engine event counts, stats counters,
metrics snapshots, crash images and litmus observations.  A timing-core
change is a no-behaviour-change refactor exactly when every pin still
matches.

Layout:

``fingerprint``
    Canonical, JSON-stable fingerprints of one run.
``grid``
    The scenario grid (models x apps x litmus corpus x fault plans x
    serve/soak) and the per-cell runner.
``goldens``
    The CLI: ``python -m repro.perfcore.goldens`` runs every grid cell
    once and diffs it against ``tests/perfcore/grid_pins.json``
    (``--regenerate`` re-pins).  Reports are byte-identical across
    ``--workers`` counts.
"""

from repro.perfcore.fingerprint import (
    fault_fingerprint,
    litmus_fingerprint,
    sim_fingerprint,
)
from repro.perfcore.grid import GridCell, build_grid, run_cell

__all__ = [
    "GridCell",
    "build_grid",
    "fault_fingerprint",
    "litmus_fingerprint",
    "run_cell",
    "sim_fingerprint",
]
