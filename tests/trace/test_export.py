"""Exporters: Perfetto structure, byte determinism, report CLI.

The structural tests run the Figure 6 reduction scenario (quick preset,
SBRP-far) once per session and validate the exported artifacts.
"""

import json

import pytest

from repro.bench.runner import run_scenario, scenario_config, scenario_stem
from repro.bench.workloads import workload
from repro.common.config import ModelName, PMPlacement
from repro.trace import load_trace, reconcile, render_report
from repro.trace.report import main as report_main

_CONFIG = scenario_config(ModelName.SBRP, PMPlacement.FAR)
_PARAMS = workload("reduction", "quick")
_STEM = scenario_stem("reduction", _CONFIG, _PARAMS)


@pytest.fixture(scope="module")
def trace_dir(tmp_path_factory):
    """One traced Figure 6 reduction run (SBRP-far, quick preset)."""
    directory = tmp_path_factory.mktemp("traces")
    run_scenario(
        "reduction",
        _CONFIG,
        _PARAMS,
        trace_dir=str(directory),
    )
    return directory


@pytest.fixture(scope="module")
def trace_path(trace_dir):
    return trace_dir / f"{_STEM}.trace.json"


@pytest.fixture(scope="module")
def trace(trace_path):
    return load_trace(trace_path)


def test_perfetto_structure(trace):
    assert set(trace) == {"traceEvents", "displayTimeUnit", "otherData"}
    events = trace["traceEvents"]
    assert events, "trace has no events"
    named = {}
    for event in events:
        assert event["ph"] in {"M", "X", "C", "b", "e"}
        if event["ph"] == "M" and event["name"] == "thread_name":
            named[(event["pid"], event["tid"])] = event["args"]["name"]
    # Every non-counter timeline event lands on a named thread track.
    for event in events:
        if event["ph"] in {"X", "b", "e"}:
            assert (event["pid"], event["tid"]) in named
        if event["ph"] == "X":
            assert event["dur"] >= 0
    # One track per warp slot and per memory device.
    tracks = set(named.values())
    assert any(t.startswith("sm0.w") for t in tracks)
    assert any(t.startswith("nvm") for t in tracks)
    assert "gpu" in tracks  # kernel-launch summary track


def test_persist_async_pairs_match(trace):
    begins = {e["id"] for e in trace["traceEvents"] if e["ph"] == "b"}
    ends = {e["id"] for e in trace["traceEvents"] if e["ph"] == "e"}
    assert begins and begins == ends
    lifecycle = trace["otherData"]["lifecycle"]
    assert len(begins) == lifecycle["persists"] > 0


def test_trace_stamped_with_config_and_cycles(trace):
    config = trace["otherData"]["config"]
    assert config["model"] == "sbrp"
    assert config["memory"]["placement"] == "far"
    assert trace["otherData"]["cycles"] > 0


def test_pb_occupancy_counter_track(trace):
    counters = {e["name"] for e in trace["traceEvents"] if e["ph"] == "C"}
    assert any(name.endswith("pb_occupancy") for name in counters)


def test_report_reconciles_within_one_percent(trace):
    recon = reconcile(trace)
    assert recon["ratio"] == pytest.approx(1.0, abs=0.01)
    assert recon["span_ratio"] == pytest.approx(1.0, abs=0.01)


def test_render_report_from_file(trace):
    text = render_report(trace)
    assert "per-warp stall attribution" in text
    assert "persist lifecycle" in text
    assert "TOTAL" in text


def test_report_cli(trace_path, capsys):
    assert report_main([str(trace_path)]) == 0
    out = capsys.readouterr().out
    assert "per-warp stall attribution" in out


_WARP_EVENTS = [
    {"ph": "M", "name": "thread_name", "pid": 0, "tid": 1, "args": {"name": "sm0.w0"}},
    {"ph": "X", "name": "warp", "pid": 0, "tid": 1, "ts": 0.0, "dur": 10.0},
    {"ph": "X", "name": "compute", "pid": 0, "tid": 1, "ts": 0.0, "dur": 10.0},
]


def test_report_cli_rejects_bare_event_array(tmp_path, capsys):
    """The report reads only what this repo writes: a bare event array
    carries no embedded aggregates, so it is not rebuilt from X events."""
    path = tmp_path / "events.json"
    path.write_text(json.dumps(_WARP_EVENTS))
    with pytest.raises(SystemExit) as exc:
        report_main([str(path)])
    assert exc.value.code == 2
    assert "is not a Chrome trace" in capsys.readouterr().err


@pytest.mark.parametrize(
    "document",
    [
        5,
        {"traceEvents": 5},
        {"traceEvents": [5]},
        {"otherData": [1]},
        {"traceEvents": _WARP_EVENTS, "otherData": {"cycles": 10.0}},
    ],
    ids=[
        "number",
        "non-array-events",
        "non-object-event",
        "non-object-other",
        "no-stalls",
    ],
)
def test_report_cli_rejects_other_json_shapes(tmp_path, capsys, document):
    path = tmp_path / "foreign.json"
    path.write_text(json.dumps(document))
    with pytest.raises(SystemExit) as exc:
        report_main([str(path)])
    assert exc.value.code == 2
    assert "is not a Chrome trace" in capsys.readouterr().err


def test_traced_run_writes_only_its_trace_json(trace_dir):
    assert [p.name for p in trace_dir.iterdir()] == [f"{_STEM}.trace.json"]


def test_export_is_byte_deterministic(tmp_path):
    def once(directory):
        run_scenario(
            "reduction",
            _CONFIG,
            _PARAMS,
            trace_dir=str(directory),
        )
        return (directory / f"{_STEM}.trace.json").read_bytes()

    first = once(tmp_path / "a")
    second = once(tmp_path / "b")
    assert first == second


class TestScenarioStem:
    def test_stem_carries_label_and_hash(self):
        assert _STEM.startswith("reduction-SBRP-far-")
        suffix = _STEM.rsplit("-", 1)[1]
        assert len(suffix) == 8
        int(suffix, 16)  # raises if not hex

    def test_app_params_disambiguate_sweep_points(self, tmp_path):
        """Regression: two sweep points differing only in app params used
        to collide on the same trace filename."""
        a = scenario_stem("reduction", _CONFIG, {"blocks": 2, "per_thread": 1})
        b = scenario_stem("reduction", _CONFIG, {"blocks": 4, "per_thread": 1})
        assert a != b

    def test_trace_tag_included(self):
        tagged = scenario_stem("reduction", _CONFIG, _PARAMS, trace_tag="demoted")
        assert "-demoted-" in tagged

    def test_trace_files_do_not_collide_on_disk(self, tmp_path):
        for blocks in (2, 4):
            run_scenario(
                "reduction",
                _CONFIG,
                {"blocks": blocks, "per_thread": 1},
                trace_dir=str(tmp_path),
            )
        assert len(list(tmp_path.glob("*.trace.json"))) == 2
