"""The pin harness itself: grid shape, pin diffs, report determinism.

``test_grid_pins.py`` checks every cell against its pin; these tests
keep the harness honest: a seeded divergence must be reported with
field paths, and the CLI must produce byte-identical reports for
``--workers 1`` and ``--workers 2``.
"""

from __future__ import annotations

import json

import pytest

from repro.perfcore import goldens
from repro.perfcore.fingerprint import diff_paths
from repro.perfcore.goldens import build_report, main
from repro.perfcore.grid import build_grid

GRID = {cell.name: cell for cell in build_grid()}


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


def test_build_report_drops_matching_fingerprints_only():
    cells = [GRID["sim.gpm.scan"], GRID["sim.sbrp.scan"]]
    pins = {"sim.gpm.scan": {"c": 1}, "sim.sbrp.scan": {"c": 1}}
    doc = build_report(cells, [{"c": 1}, {"c": 2}], pins)
    assert doc["cells"]["sim.gpm.scan"] == {
        "kind": "sim", "match": True, "mismatches": []
    }
    bad = doc["cells"]["sim.sbrp.scan"]
    assert bad["mismatches"] == ["c"] and bad["fingerprint"] == {"c": 2}
    assert doc["mismatched"] == ["sim.sbrp.scan"]


def test_build_report_flags_unpinned_cells():
    cell = GRID["sim.gpm.scan"]
    doc = build_report([cell], [{"c": 1}], pins={})
    assert doc["cells"][cell.name]["mismatches"] == ["<no pin>"]
    assert doc["mismatched"] == [cell.name]


def test_seeded_divergence_is_reported_with_paths(monkeypatch, tmp_path, capsys):
    # Skew the run, not the pin: the report must say where it moved.
    real = goldens.run_cell

    def skewed(cell_json):
        fp = real(cell_json)
        return dict(fp, cycles=fp["cycles"] + 1)

    monkeypatch.setattr(goldens, "run_cell", skewed)
    out = tmp_path / "report.json"
    assert main(["--cases", "sim.sbrp.reduction", "--quiet", "--out", str(out)]) == 1
    doc = json.loads(out.read_text())
    assert doc["mismatched"] == ["sim.sbrp.reduction"]
    assert doc["cells"]["sim.sbrp.reduction"]["mismatches"] == ["cycles"]
    assert "sim.sbrp.reduction.cycles" in capsys.readouterr().err


def test_cli_byte_identical_across_worker_counts(tmp_path):
    cases = ["sim.sbrp.gpkvs", "litmus.sbrp.mp_ofence_split"]
    out1 = tmp_path / "w1.json"
    out2 = tmp_path / "w2.json"
    assert main(["--cases", *cases, "--quiet", "--out", str(out1)]) == 0
    assert main(
        ["--cases", *cases, "--quiet", "--workers", "2", "--out", str(out2)]
    ) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["total"] == 2 and doc["mismatched"] == []


def test_cli_rejects_unknown_cell():
    with pytest.raises(SystemExit):
        main(["--cases", "no.such.cell", "--quiet"])


def test_cli_list_prints_cells(capsys):
    assert main(["--list"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert "litmus.sbrp.mp_ofence_split" in lines
    assert len(lines) == len(GRID)
