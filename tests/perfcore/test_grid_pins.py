"""Every cell of the perfcore grid reproduces its pinned fingerprint.

``test_pins.py`` compares the whole grid pin byte for byte; one case per
cell here names the cell that moved and the field paths that moved in it.
"""

from __future__ import annotations

import json

import pytest

from repro.perfcore.fingerprint import diff_paths
from repro.perfcore.goldens import PINS as MANIFEST
from repro.perfcore.grid import build_grid, run_cell

PINS = json.loads(MANIFEST["grid"].file.read_text(encoding="utf-8"))
GRID = {cell.name: cell for cell in build_grid()}


def test_pins_cover_the_grid():
    assert sorted(PINS) == sorted(GRID)
    assert len(PINS) == 82


@pytest.mark.parametrize("name", sorted(GRID))
def test_cell_matches_pin(name: str):
    got = run_cell(GRID[name].to_json())
    assert "error" not in got, got
    mismatches = diff_paths(PINS[name], got)
    assert not mismatches, f"{name} diverged from its pin at {mismatches}"
