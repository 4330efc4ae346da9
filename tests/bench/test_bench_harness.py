"""Benchmark harness: workload presets, runner, figure drivers.

Figure drivers run on a single small app so the suite stays fast; the
full figures live in benchmarks/.
"""

import math

import pytest

from repro.bench import figure6, figure8, figure10c, workload
from repro.bench.report import FigureTable
from repro.bench.runner import run_scenario, scenario_config
from repro.bench.workloads import APP_ORDER, SCOPED_APPS, WORKLOADS
from repro.common.config import ModelName, PMPlacement


class TestWorkloads:
    def test_presets_cover_all_apps(self):
        for preset in WORKLOADS:
            assert sorted(WORKLOADS[preset]) == sorted(APP_ORDER)

    def test_scoped_apps_subset(self):
        assert set(SCOPED_APPS) <= set(APP_ORDER)

    def test_workload_returns_copy(self):
        a = workload("gpkvs")
        a["n_pairs"] = -1
        assert workload("gpkvs")["n_pairs"] > 0

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            workload("gpkvs", "nope")


class TestScenarioConfig:
    def test_knobs_propagate(self):
        cfg = scenario_config(
            ModelName.SBRP,
            PMPlacement.NEAR,
            nvm_bw_scale=2.0,
            pb_coverage=0.25,
            window=4,
            demote_block_scope=True,
        )
        assert cfg.memory.nvm_bw_scale == 2.0
        assert cfg.sbrp.pb_coverage == 0.25
        assert cfg.sbrp.window == 4
        assert cfg.sbrp.demote_block_scope

    def test_runner_verifies_app(self):
        cfg = scenario_config(ModelName.SBRP, PMPlacement.NEAR)
        result = run_scenario("srad", cfg, {"side": 32})
        assert result.cycles > 0
        assert result.label == "SBRP-near"
        assert result.stat("persist.lines") > 0


class TestFigureTable:
    def test_ascii_and_csv_round_trip(self):
        table = FigureTable("t", "app", ["a", "b"])
        table.add_row("x", {"a": 1.0, "b": 2.0})
        assert "1.000" in table.to_ascii()
        assert "x,1.0,2.0" in table.to_csv()
        assert table.cell("x", "b") == 2.0
        assert table.column("a") == [1.0]

    def test_missing_cell_raises(self):
        table = FigureTable("t", "app", ["a"])
        with pytest.raises(KeyError):
            table.cell("nope", "a")


class TestFigureDrivers:
    def test_figure6_single_app_shape(self):
        table = figure6(preset="quick", apps=["srad"])
        assert [r["app"] for r in table.rows] == ["srad", "gmean"]
        # Near systems always beat far ones.
        assert table.cell("srad", "Epoch-near") > table.cell("srad", "Epoch-far")
        # The baseline normalizes to 1.
        assert table.cell("srad", "Epoch-far") == pytest.approx(1.0)

    def test_figure6_sbrp_beats_epoch_on_scoped_apps(self):
        """The paper's headline: scopes let SBRP beat Epoch on the apps
        with inter-thread persist ordering, on both placements."""
        table = figure6(preset="quick", apps=list(SCOPED_APPS))
        for app in SCOPED_APPS:
            for placement in ("far", "near"):
                sbrp = table.cell(app, f"SBRP-{placement}")
                epoch = table.cell(app, f"Epoch-{placement}")
                assert sbrp > epoch, (app, placement, sbrp, epoch)

    def test_figure8_sbrp_retains_more(self):
        table = figure8(preset="quick", apps=["gpkvs"])
        assert table.cell("gpkvs", "SBRP-far") <= table.cell("gpkvs", "Epoch-far")

    def test_figure10c_window_sweep_is_finite(self):
        table = figure10c(preset="quick", apps=["srad"])
        for label in ["2", "6", "10"]:
            assert math.isfinite(table.cell("srad", label))
