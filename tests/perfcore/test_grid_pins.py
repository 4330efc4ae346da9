"""Every cell of the perfcore grid reproduces its pinned fingerprint.

``grid_pins.json`` holds, per grid cell name, the full fingerprint of
the run: cycles, event counts, every stats counter, crash-image and
metrics hashes, and for litmus cells the complete observation the
conformance oracle judges.  Any timing-core change that shifts
behaviour fails here with the field paths that moved.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.perfcore.fingerprint import diff_paths, fingerprint
from repro.perfcore.grid import build_grid

PINS_PATH = Path(__file__).with_name("grid_pins.json")
PINS = json.loads(PINS_PATH.read_text(encoding="utf-8"))
GRID = {cell.name: cell for cell in build_grid()}


def test_pins_cover_the_grid():
    assert sorted(PINS) == sorted(GRID)
    assert len(PINS) == 82


@pytest.mark.parametrize("name", sorted(GRID))
def test_cell_matches_pin(name: str):
    cell = GRID[name]
    got = fingerprint(cell.kind, cell.payload)
    assert "error" not in got, got
    mismatches = diff_paths(PINS[name], got)
    assert not mismatches, f"{name} diverged from its pin at {mismatches}"
