"""Fast checks of the benchmark itself, at tiny input sizes.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.import_simulator()
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _args(workload: str, trace: int) -> object:
    return run.parse_args(
        ["--workload", workload, "--seed", "5", "--seconds", "0",
         "--trace", str(trace), "--tiny"]
    )


@pytest.fixture(scope="module", params=run.WORKLOAD_NAMES)
def measured(request):
    """(workload name, trace-0 document, trace-1 document, trace-1 lines)."""
    name = request.param
    workload = run.set_up(name, 5, tiny=True)
    plain_doc, _ = run.measure(_args(name, 0), workload, setup_s=1.0)
    traced_doc, lines = run.measure(_args(name, 1), workload, setup_s=1.0)
    return name, plain_doc, traced_doc, lines


def test_spec_names_are_well_formed():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.WORKLOAD_NAMES)


def test_every_metric_is_emitted(measured):
    _, plain_doc, traced_doc, _ = measured
    for doc, kind in ((plain_doc, "end_to_end"), (traced_doc, "per_layer")):
        assert set(doc) == {"correct", "attempted", "failed", "metrics"}
        assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[kind]}
        emitted = {n: m["unit"] for n, m in doc["metrics"].items()}
        assert emitted == expected
        for name in emitted:
            assert NAME.fullmatch(name), name
    for name in ("setup_s", "wall_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb"):
        assert plain_doc["metrics"][name]["value"] > 0


def test_spans_only_observe(measured):
    """Exact simulated counts are identical in the plain, span-traced and
    profiled passes (``correct`` is false otherwise), and the traced
    pass saw the layers its workload drives."""
    name, _, traced_doc, lines = measured
    assert "exact simulated counts differ between passes" not in lines
    metrics = {n: m["value"] for n, m in traced_doc["metrics"].items()}
    assert metrics["gpu.launches"] > 0 and metrics["system.construct_calls"] > 0
    driven = {
        "figures": ("exec.submit_calls", "apps.check_calls", "crash.recover_calls"),
        "serve": ("serve.batch_calls", "serve.plan_calls", "crash.recover_calls"),
        "conformance": ("check.oracle_calls", "formal.allowed_calls",
                        "formal.simulate_calls"),
    }[name]
    for calls in driven:
        assert metrics[calls] > 0, calls
    shares = [v for n, v in metrics.items() if n.startswith("host_share.")]
    assert sum(shares) == pytest.approx(1.0)


def test_spans_are_removed_after_a_traced_pass():
    import layers
    from repro.system import GPUSystem

    launch = GPUSystem.launch
    with layers.SpanTracer():
        assert GPUSystem.launch is not launch
    assert GPUSystem.launch is launch


def test_tail_has_ten_ops_beyond_it():
    ops = [float(i) for i in range(1, 201)]
    assert run.tail(ops) == (95.0, 190.0)
    assert run.tail(ops[:12]) == (50.0, 6.0)


def test_command_line_result_is_the_last_line():
    done = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "serve",
         "--seed", "2", "--seconds", "0", "--trace", "0", "--tiny"],
        cwd=str(run.ROOT), capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    assert lines[0].startswith("env ")
    doc = json.loads(lines[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}


def test_fails_without_the_simulator_source(tmp_path: Path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "figures",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
