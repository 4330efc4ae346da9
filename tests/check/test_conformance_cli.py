"""The conformance CLI and its MODE_CHECK job plumbing."""

import json

import pytest

from repro.check import oracle
from repro.check.conformance import STOCK_MODELS, build_report, main
from repro.check.corpus import corpus_programs
from repro.check.enumerator import SMOKE_VARIANTS
from repro.check.fuzzer import generate_stream
from repro.check.mutants import mutant_names
from repro.common.config import ModelName, small_system
from repro.common.errors import ConfigError
from repro.exec import MODE_CHECK, Executor, ScenarioJob


def make_check_job(mutant=None):
    programs = generate_stream(3, 2)
    return ScenarioJob(
        app="conformance",
        config=small_system(ModelName.SBRP),
        mode=MODE_CHECK,
        verify=False,
        check={
            "programs": [p.to_json() for p in programs],
            "models": ["sbrp"],
            "mutants": [mutant] if mutant else [],
            "variants": [v.to_json() for v in SMOKE_VARIANTS[:1]],
            "crash_points": 16,
        },
    )


class TestCheckJobs:
    def test_check_payload_required_for_mode(self):
        with pytest.raises(ConfigError):
            ScenarioJob(
                app="conformance",
                config=small_system(ModelName.SBRP),
                mode=MODE_CHECK,
            )
        with pytest.raises(ConfigError):
            ScenarioJob(
                app="conformance",
                config=small_system(ModelName.SBRP),
                check={"programs": []},
            )

    def test_job_round_trips_and_hashes_stably(self):
        job = make_check_job()
        clone = ScenarioJob.from_json(job.to_json())
        assert clone.spec_hash == job.spec_hash
        assert clone.check == job.check

    def test_label_carries_the_mutant(self):
        assert "[ofence_noop]" in make_check_job(mutant="ofence_noop").label
        assert "[check]" in make_check_job().label

    def test_execute_returns_per_program_reports(self):
        result = make_check_job().execute()
        assert result.app == "conformance"
        assert result.stats["check.programs"] == 2
        assert result.stats["check.violations"] == 0
        assert len(result.detail["programs"]) == 2


class TestProgramMajor:
    def test_allowed_sets_derived_once_per_program(self, monkeypatch):
        """Each batch checks a program under every target in a row, so
        its unconstrained allowed set is derived once, not per target."""
        derived = []
        original = oracle.allowed_unconstrained

        def counting(program, *args):
            derived.append(program.name)
            return original(program, *args)

        monkeypatch.setattr(oracle, "allowed_unconstrained", counting)
        monkeypatch.setattr(oracle, "_last", (None, set(), {}, None))
        report = build_report(
            programs=3,
            seed=5,
            mutant_programs=1,
            batch_size=4,
            crash_points=48,
            variants=list(SMOKE_VARIANTS[:1]),
            models=list(STOCK_MODELS),
            mutants=mutant_names()[:2],
            executor=Executor(workers=1),
            shrink=False,
        )
        names = [p.name for p in corpus_programs() + generate_stream(5, 3)]
        assert derived == names
        assert report["models"]["sbrp"]["programs"] == len(names)
        for mutant in mutant_names()[:2]:
            assert report["mutants"][mutant]["programs"] == len(names) - 2


class TestCli:
    def test_list_mutants(self, capsys):
        assert main(["--list-mutants"]) == 0
        out = capsys.readouterr().out
        assert "ack_without_flush" in out and "pb_lifo_drain" in out

    def test_tiny_stock_run_exits_zero(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            [
                "--smoke", "--programs", "2", "--mutants", "none",
                "--models", "sbrp", "--out", str(out), "--quiet",
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["summary"]["stock_violations"] == 0
        assert report["models"]["sbrp"]["programs"] == report[
            "corpus_programs"
        ] + 2

    def test_report_worker_independent(self, tmp_path):
        args = [
            "--smoke", "--programs", "2", "--mutants", "ack_without_flush",
            "--mutant-programs", "0", "--models", "sbrp", "--no-shrink",
            "--quiet",
        ]
        paths = []
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}.json"
            code = main(args + ["--workers", workers, "--out", str(out)])
            assert code == 0
            paths.append(out)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_mutant_is_caught_and_shrunk(self, tmp_path):
        out = tmp_path / "mutant.json"
        code = main(
            [
                "--smoke", "--programs", "0", "--mutant-programs", "0",
                "--models", "sbrp", "--mutants", "ack_without_flush",
                "--out", str(out), "--quiet",
            ]
        )
        assert code == 0
        entry = json.loads(out.read_text())["mutants"]["ack_without_flush"]
        assert entry["caught"]
        assert entry["shrunk_ops"] <= 6
        assert "def test_conformance_regression" in entry["regression_test"]

    @pytest.mark.parametrize("points", ["0", "-2"])
    def test_crash_points_below_one_rejected(self, points, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--smoke", "--crash-points", points, "--quiet"])
        assert exc.value.code == 2
        assert (
            f"argument --crash-points: must be >= 1, got {points}"
            in capsys.readouterr().err
        )

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--batch-size", "0"], "argument --batch-size: must be >= 1, got 0"),
            (
                ["--mutant-programs", "-2"],
                "argument --mutant-programs: must be >= 0, got -2",
            ),
            (["--programs", "-1"], "argument --programs: must be >= 0, got -1"),
            (["--models", "sbrp,tso"], "--models: unknown tso; have gpm, epoch, sbrp"),
            (["--mutants", "bogus"], "--mutants: unknown bogus; have ack_without_flush"),
            # A repeated target would be run and counted twice.
            (["--models", "gpm,sbrp,gpm"], "--models: repeated gpm"),
            (
                ["--mutants", "ofence_noop,ofence_noop"],
                "--mutants: repeated ofence_noop",
            ),
        ],
        ids=[
            "batch-size", "mutant-programs", "programs", "models", "mutants",
            "repeated-model", "repeated-mutant",
        ],
    )
    def test_bad_size_or_name_rejected(self, args, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--smoke", "--quiet"] + args)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
