"""The grid pin's harness itself: grid shape, pin diffs, worker parity.

``test_grid_pins.py`` checks every cell against its pin; these tests keep
the harness honest: a seeded divergence must be reported with field
paths, and the grid must produce byte-identical pins for ``--workers
1`` and ``--workers 2``.
"""

from __future__ import annotations

import json

from repro.perfcore import goldens
from repro.perfcore.fingerprint import diff_paths
from repro.perfcore.goldens import main
from repro.perfcore.grid import build_grid

GRID = {cell.name: cell for cell in build_grid()}
GRID_PIN = goldens.PINS["grid"]


def test_full_grid_covers_all_axes():
    kinds = {cell.kind for cell in GRID.values()}
    assert kinds == {"sim", "litmus", "fault", "serve", "soak"}
    models = {cell.payload["model"] for cell in GRID.values()}
    assert models == {"gpm", "epoch", "sbrp"}
    # Litmus corpus appears under every model.
    litmus = [c for c in GRID.values() if c.kind == "litmus"]
    assert len({c.payload["program"]["name"] for c in litmus}) >= 10
    # A fuzzed stream rides along under SBRP.
    fuzzed = [c.name for c in litmus if "fuzz" in c.name]
    assert len(fuzzed) == 32
    assert all(name.startswith("litmus.sbrp.fuzz-7-") for name in fuzzed)
    # Serving cells cover every model; the soak chain pins SBRP.
    assert {c.payload["model"] for c in GRID.values() if c.kind == "serve"} \
        == {"gpm", "epoch", "sbrp"}
    assert [c.name for c in GRID.values() if c.kind == "soak"] \
        == ["soak.sbrp.kvs"]


def test_diff_paths_reports_divergence():
    a = {"cycles": 10.0, "stats": {"x": 1.0, "y": 2.0}, "img": [1, 2]}
    b = {"cycles": 11.0, "stats": {"x": 1.0, "y": 3.0}, "img": [1, 2, 3]}
    paths = diff_paths(a, b)
    assert "cycles" in paths
    assert "stats.y" in paths
    assert "img.length" in paths
    assert diff_paths(a, a) == []


def test_seeded_divergence_is_reported_with_paths(monkeypatch, capsys):
    # Skew one cell's run by one cycle, not its pin: the check must say
    # where it moved.
    real = goldens.run_cell

    def skewed(cell_json):
        fp = real(cell_json)
        if cell_json["name"] == "sim.sbrp.reduction":
            fp = dict(fp, cycles=fp["cycles"] + 1)
        return fp

    monkeypatch.setattr(goldens, "run_cell", skewed)
    assert main(["grid"]) == 1
    err = capsys.readouterr().err
    assert f"differs from {GRID_PIN.path} at sim.sbrp.reduction.cycles\n" in err


def test_grid_byte_identical_across_worker_counts(monkeypatch):
    cells = [GRID["sim.sbrp.gpkvs"], GRID["litmus.sbrp.mp_ofence_split"]]
    monkeypatch.setattr(goldens, "build_grid", lambda: cells)
    serial = GRID_PIN.render(1)
    assert GRID_PIN.render(2) == serial
    pinned = json.loads(GRID_PIN.file.read_text(encoding="utf-8"))
    assert json.loads(serial) == {cell.name: pinned[cell.name] for cell in cells}
