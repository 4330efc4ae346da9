"""The behaviour pins and the one tool that checks or re-pins them.

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
``issue_order`` / ``allowed_images``
    The producers of the scheduler issue-order pin and of the axiomatic
    model's allowed-image pin.
``goldens``
    The pin manifest (``PINS``: grid, issue order, allowed images, the
    smoke and mini conformance reports, the smoke serving report, the
    quick figure tables) and
    its CLI: ``python -m repro.perfcore.goldens [PIN ...] [--workers N
    ...]`` checks each pin byte for byte at every listed worker count
    (``--regenerate`` re-pins).
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
