"""The campaign CLI: smoke preset, determinism across workers, repro."""

import json

import pytest

from repro.common.config import ModelName
from repro.exec import Executor
from repro.faults.campaign import main, named_plans, soak_cells, soak_row


def run_campaign(tmp_path, name, argv):
    out = tmp_path / name
    code = main(argv + ["--quiet", "--out", str(out)])
    return code, out.read_bytes(), json.loads(out.read_text())


@pytest.fixture(scope="module")
def smoke_report(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("campaign-sbrp")
    return run_campaign(
        tmp_path, "smoke-sbrp.json", ["--smoke", "--models", "sbrp"]
    )


class TestSmoke:
    @pytest.fixture(scope="class")
    def smoke(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("campaign")
        return run_campaign(tmp_path, "smoke.json", ["--smoke"])

    def test_exit_zero(self, smoke):
        code, _, _ = smoke
        assert code == 0

    def test_clean_plans_report_zero_inconsistencies(self, smoke):
        _, _, report = smoke
        clean = [
            row
            for row in report["scenarios"]
            if row["expect"] == "consistent"
        ]
        # gpkvs x {sbrp, gpm, epoch} x {power_cut, torn_persist}
        # + serve_kvs x {sbrp, gpm, epoch} x power_cut
        assert len(clean) == 9
        assert all(row["outcome"] == "consistent" for row in clean)
        assert {row["model"] for row in clean} == {"sbrp", "gpm", "epoch"}
        assert {
            row["model"]
            for row in clean
            if row["app"] == "serve_kvs"
        } == {"sbrp", "gpm", "epoch"}

    def test_seeded_bugs_are_flagged(self, smoke):
        _, _, report = smoke
        assert report["summary"]["seeded_flagged"] >= 1
        seeded = [
            row
            for row in report["scenarios"]
            if row["app_params"].get("seeded_bug")
        ]
        assert seeded and all(
            row["outcome"] == "inconsistent" and row["reproducer"] is not None
            for row in seeded
        )

    def test_formal_oracle_catches_dropped_drains(self, smoke):
        _, _, report = smoke
        assert report["summary"]["litmus_unreachable_detected"] == 1
        faulty = next(
            row for row in report["litmus"] if "drain_drop" in row["name"]
        )
        assert faulty["classification"] == "unreachable_state"
        # The dropped drain shows as a forbidden image and as a drained
        # final image that lost a persist.
        assert {v["type"] for v in faulty["violations"]} >= {"soundness", "final"}

    def test_static_scope_bug_detected(self, smoke):
        _, _, report = smoke
        assert report["summary"]["scope_bugs_detected"] >= 1

    def test_nothing_unexpected(self, smoke):
        _, _, report = smoke
        assert report["summary"]["unexpected"] == []


class TestDeterminism:
    ARGS = ["--smoke", "--models", "sbrp"]

    def test_reports_byte_identical_across_worker_counts(self, tmp_path):
        code1, bytes1, _ = run_campaign(
            tmp_path, "w1.json", self.ARGS + ["--workers", "1"]
        )
        code2, bytes2, _ = run_campaign(
            tmp_path, "w2.json", self.ARGS + ["--workers", "4"]
        )
        assert code1 == code2 == 0
        assert bytes1 == bytes2


class TestRepro:
    def test_reproducer_round_trips(self, tmp_path):
        code, _, report = run_campaign(
            tmp_path, "seed.json", ["--smoke", "--models", "sbrp"]
        )
        assert code == 0
        seeded = next(
            row
            for row in report["scenarios"]
            if row["app_params"].get("seeded_bug")
        )
        spec = tmp_path / "repro.json"
        spec.write_text(json.dumps(seeded["reproducer"]))
        # Exit 0 = the pinned crash point reproduced the inconsistency.
        assert main(["--repro", str(spec)]) == 0

    @pytest.mark.parametrize("preset", [["--smoke"], []], ids=["smoke", "full"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_crash_point_cap_below_one_rejected(self, capsys, preset, value):
        with pytest.raises(SystemExit) as info:
            main(preset + ["--max-crash-points", value])
        assert info.value.code == 2
        assert (
            f"argument --max-crash-points: must be >= 1, got {value}"
            in capsys.readouterr().err
        )

    @pytest.mark.parametrize(
        "flag", ["--apps", "--models", "--placements", "--plans"]
    )
    def test_empty_list_flag_rejected(self, capsys, flag):
        with pytest.raises(SystemExit) as info:
            main([flag])
        assert info.value.code == 2
        assert f"argument {flag}: expected at least one argument" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize(
        "flag, value",
        [("--apps", "hashmap"), ("--plans", "ack_loss"), ("--placements", "near")],
    )
    def test_smoke_rejects_cell_filters(self, capsys, flag, value):
        # The smoke cells are fixed: a filter it would ignore is an error.
        with pytest.raises(SystemExit) as info:
            main(["--smoke", flag, value, "--models", "sbrp"])
        assert info.value.code == 2
        assert f"{flag} does not apply to --smoke" in capsys.readouterr().err

    @pytest.mark.parametrize("plan", ["torn_window", "drain_reorder", "drain_drop"])
    def test_retired_plan_name_rejected(self, capsys, plan):
        with pytest.raises(SystemExit) as info:
            main(["--plans", plan])
        assert info.value.code == 2
        assert "argument --plans: invalid choice" in capsys.readouterr().err

    def test_named_plan_menu(self):
        assert sorted(named_plans()) == [
            "ack_delay",
            "ack_loss",
            "nvm_exhausted",
            "nvm_transient",
            "power_cut",
            "torn_last",
        ]

    def test_list_plans(self, capsys):
        assert main(["--list-plans"]) == 0
        out = capsys.readouterr().out
        assert "torn_persist" in out and "ack_loss" in out


class TestCongestedTeeth:
    """``missing_ofence`` is latent under an uncongested drain; the
    campaign's congested cell must still flag it."""

    def test_cell_capacity_gives_table_regions_odd_line_parity(self):
        from repro.common.config import ModelName
        from repro.faults.campaign import APP_PARAMS, congested_cells

        [smoke] = congested_cells((ModelName.SBRP,), 12)
        [full] = congested_cells(
            (ModelName.SBRP,), 12, params=APP_PARAMS["gpkvs"]
        )
        for cell in (smoke, full):
            assert cell.app_params["seeded_bug"] == "missing_ofence"
            assert (4 * cell.app_params["capacity"] // 128) % 2 == 1
            config = cell.job().config
            assert config.memory.wpq_entries == 1
            assert config.memory.nvm_bw_scale == 0.02

    def test_congested_campaign_flags_missing_ofence(self, smoke_report):
        _, _, report = smoke_report
        row = next(
            r for r in report["scenarios"] if "~congested" in r["name"]
        )
        assert row["app_params"]["seeded_bug"] == "missing_ofence"
        assert row["outcome"] == "inconsistent"
        assert row["matched"]
        assert row["reproducer"] is not None

    def test_bug_is_latent_without_congestion(self):
        import dataclasses

        from repro.common.config import ModelName
        from repro.exec import Executor
        from repro.faults.campaign import congested_cells
        from repro.faults.plans import PowerCutPlan

        [cell] = congested_cells((ModelName.SBRP,), 12)
        latent = dataclasses.replace(
            cell,
            wpq_entries=None,
            nvm_bw_scale=None,
            plan=PowerCutPlan(),  # expectation back to consistent
        )
        result = Executor(workers=1).submit([latent.job()])[0]
        assert result.stats["faults.inconsistent_points"] == 0

    def test_crash_point_cap_keeps_the_congestion(self, tmp_path):
        # Overriding the smoke cap must only change the cap: the
        # congested cell keeps its WPQ/NVM overrides and stays flagged.
        code, _, report = run_campaign(
            tmp_path,
            "capped.json",
            ["--smoke", "--models", "sbrp", "--max-crash-points", "12"],
        )
        assert code == 0
        row = next(
            r for r in report["scenarios"] if "~congested" in r["name"]
        )
        assert row["outcome"] == "inconsistent"


class TestSoakChains:
    """Crash→recover→crash chains under the brownout+burst timeline."""

    def rows(self, report):
        chain, teeth = report["soak"]
        assert "!early_commit" in teeth["name"]
        return chain, teeth

    def test_chain_survives_its_crashes_without_loss(self, smoke_report):
        _, _, report = smoke_report
        chain, _ = self.rows(report)
        assert chain["matched"] and chain["outcome"] == "consistent"
        assert chain["failure"] is None

    def test_chain_oracle_consistent_at_every_reboot(self, smoke_report):
        _, _, report = smoke_report
        chain, _ = self.rows(report)
        assert len(chain["reboots"]) >= 2
        assert all(r["oracle"] == "consistent" for r in chain["reboots"])

    def test_chain_loses_no_committed_transaction(self, smoke_report):
        _, _, report = smoke_report
        chain, _ = self.rows(report)
        assert chain["lost_committed"] == []
        assert chain["stats"]["soak.lost_committed"] == 0.0

    def test_chain_reports_availability_and_latency(self, smoke_report):
        _, _, report = smoke_report
        chain, _ = self.rows(report)
        stats = chain["stats"]
        assert stats["soak.crashes"] == len(chain["reboots"])
        assert 0.0 < stats["soak.availability"] < 1.0
        assert stats["soak.latency_p99"] >= stats["soak.latency_p50"] > 0.0
        assert stats["soak.goodput_rps"] > 0.0

    def test_chain_burst_failures_were_retried(self, smoke_report):
        # The burst fired, and no failed persist ran out of retries.
        _, _, report = smoke_report
        chain, _ = self.rows(report)
        assert chain["injected"]["nvm_transient_failures"] > 0
        assert chain["injected"].get("nvm_retry_exhausted", 0) == 0

    def test_seeded_bug_is_flagged_at_a_reboot(self, smoke_report):
        _, _, report = smoke_report
        _, teeth = self.rows(report)
        assert teeth["expect"] == "inconsistent"
        assert teeth["matched"] and teeth["outcome"] == "inconsistent"
        assert teeth["failure"]["stage"] == "oracle"
        assert teeth["reboots"][-1]["oracle"] == "app_violation"

    def test_summary_counts_the_chains(self, smoke_report):
        _, _, report = smoke_report
        assert report["summary"]["soak_chains"] == 2
        assert report["summary"]["soak_reboots"] >= 3

    def test_soak_rows_byte_identical_across_workers(self):
        cells = soak_cells((ModelName.SBRP,), full=False)
        texts = []
        for workers in (1, 2):
            results = Executor(workers=workers).submit(
                [cell.job() for cell in cells]
            )
            rows = [soak_row(c, r) for c, r in zip(cells, results)]
            texts.append(json.dumps(rows, sort_keys=True))
        assert texts[0] == texts[1]
        chain, teeth = json.loads(texts[0])
        assert chain["matched"] and teeth["matched"]
