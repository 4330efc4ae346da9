"""The differential harness itself: grids, cell runs, report determinism.

The heavyweight full-grid sweep lives in CI (``perfcore-smoke``); these
tests keep the harness honest at tier-1 cost: one real cell per kind
runs reference-vs-fast and must match, a seeded divergence must be
reported with field paths, and the CLI must produce byte-identical
reports for ``--workers 1`` and ``--workers 2``.
"""

from __future__ import annotations

import json

import pytest

from repro.perfcore.diff import build_report, main
from repro.perfcore.fingerprint import diff_paths
from repro.perfcore.grid import build_grid, run_cell

GRID = {cell.name: cell for cell in build_grid(smoke=False)}


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


def test_smoke_grid_is_subset_of_full():
    smoke = build_grid(smoke=True)
    assert {cell.name for cell in smoke} <= set(GRID)
    assert {cell.kind for cell in smoke} == {"sim", "litmus", "fault", "serve"}


@pytest.mark.parametrize(
    "name",
    [
        "sim.epoch.reduction",
        "litmus.sbrp.device_release_pm_flag",
        "litmus.sbrp.fuzz-7-2",
        "fault.sbrp.gpkvs.powercut",
        "serve.sbrp.kvs",
        "soak.sbrp.kvs",
    ],
)
def test_cell_matches_across_engines(name: str):
    report = run_cell(GRID[name].to_json())
    assert report["match"], report["mismatches"]
    assert report["reference"] == report["fast"]
    assert "error" not in report["reference"]


def test_diff_paths_reports_divergence():
    a = {"cycles": 10.0, "stats": {"x": 1.0, "y": 2.0}, "img": [1, 2]}
    b = {"cycles": 11.0, "stats": {"x": 1.0, "y": 3.0}, "img": [1, 2, 3]}
    paths = diff_paths(a, b)
    assert "cycles" in paths
    assert "stats.y" in paths
    assert "img.length" in paths
    assert diff_paths(a, a) == []


def test_build_report_drops_matching_fingerprints_only():
    ok = {"name": "a", "kind": "sim", "match": True, "mismatches": [],
          "reference": {"c": 1}, "fast": {"c": 1}}
    bad = {"name": "b", "kind": "sim", "match": False,
           "mismatches": ["fast:c"],
           "reference": {"c": 1}, "fast": {"c": 2}}
    doc = build_report([ok, bad], "full", full=False)
    assert "reference" not in doc["cells"]["a"]
    assert "fast" not in doc["cells"]["a"]
    assert doc["cells"]["b"]["reference"] == {"c": 1}
    assert doc["cells"]["b"]["fast"] == {"c": 2}
    assert doc["mismatched"] == ["b"]


def test_run_cell_prefixes_mismatch_paths_with_engine(monkeypatch):
    # Seed a divergence in the fast engine; the report must say *which*
    # engine diverged, not just where.
    import repro.perfcore.grid as grid_mod

    real = grid_mod.fingerprint

    def skewed(kind, payload, engine):
        fp = real(kind, payload, engine)
        if engine == "fast":
            fp = dict(fp, cycles=fp["cycles"] + 1)
        return fp

    monkeypatch.setattr(grid_mod, "fingerprint", skewed)
    report = grid_mod.run_cell(GRID["sim.sbrp.reduction"].to_json())
    assert not report["match"]
    assert report["mismatches"] == ["fast:cycles"]


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
    assert main(["--smoke", "--list"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert "litmus.sbrp.mp_ofence_split" in lines
