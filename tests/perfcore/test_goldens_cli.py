"""The pin tool's refusals: check and regenerate against the manifest.

``--regenerate`` must refuse to start from a git-dirty pin (that is
what a hand-edited baseline looks like) unless ``--force`` is given,
and must never write a pin whose producer failed.  Both refusals are
exercised on the cheap ``issue_order`` pin, its manifest entry pointed
at a scratch git repo.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
from pathlib import Path

import pytest

from repro.check import conformance
from repro.perfcore import goldens

COMMITTED = goldens.PINS["issue_order"].file


def _point(monkeypatch, name, **changes):
    pin = dataclasses.replace(goldens.PINS[name], **changes)
    monkeypatch.setitem(goldens.PINS, name, pin)
    return pin


@pytest.fixture
def pin_repo(tmp_path, monkeypatch):
    """The real issue-order pin committed at HEAD of a scratch git repo,
    with the manifest pointing at it."""
    subprocess.run(["git", "init", "-q", str(tmp_path)], check=True)
    path = tmp_path / COMMITTED.name
    path.write_bytes(COMMITTED.read_bytes())
    git = ["git", "-c", "user.email=t@t", "-c", "user.name=t", "-C", str(tmp_path)]
    subprocess.run([*git, "add", path.name], check=True)
    subprocess.run([*git, "commit", "-q", "-m", "pin"], check=True)
    _point(monkeypatch, "issue_order", path=path)
    return path


def _hand_edit(path):
    pins = json.loads(path.read_text(encoding="utf-8"))
    pins[3]["now"] += 1.0
    path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return path.read_bytes()


def test_regenerate_round_trips_committed_pin(pin_repo, capsys):
    assert goldens.main(["issue_order", "--regenerate"]) == 0
    assert "(unchanged)" in capsys.readouterr().out
    assert pin_repo.read_bytes() == COMMITTED.read_bytes()


def test_check_names_the_moved_field(pin_repo, capsys):
    _hand_edit(pin_repo)
    assert goldens.main(["issue_order"]) == 1
    assert "[3].now" in capsys.readouterr().err


def test_regenerate_refuses_dirty_pin(pin_repo, capsys):
    edited = _hand_edit(pin_repo)
    assert goldens.main(["issue_order", "--regenerate"]) == 1
    assert "refusing to regenerate" in capsys.readouterr().err
    # The hand-edit is left in place, not silently overwritten.
    assert pin_repo.read_bytes() == edited
    # --force re-pins from a fresh run, discarding the edit.
    assert goldens.main(["issue_order", "--regenerate", "--force"]) == 0
    assert "moved at [3].now" in capsys.readouterr().out
    assert pin_repo.read_bytes() == COMMITTED.read_bytes()


def test_regenerate_refuses_failed_producer(pin_repo, monkeypatch, capsys):
    def broken(workers):
        raise goldens.ProducerFailed("seeded failure")

    _point(monkeypatch, "issue_order", render=broken)
    pin_repo.write_text("stale\n")  # would show if the pin were rewritten
    for argv in (["issue_order"], ["issue_order", "--regenerate", "--force"]):
        assert goldens.main(argv) == 1
        assert "producer failed: seeded failure" in capsys.readouterr().err
        assert pin_repo.read_text() == "stale\n"


def test_failed_grid_cell_fails_the_producer(monkeypatch):
    cells = goldens.build_grid()[:1]
    monkeypatch.setattr(goldens, "build_grid", lambda: cells)
    monkeypatch.setattr(goldens, "run_cell", lambda cell: {"error": "boom"})
    with pytest.raises(goldens.ProducerFailed, match=cells[0].name):
        goldens.PINS["grid"].render(1)


def test_failing_conformance_run_fails_the_producer(monkeypatch):
    def violating(argv):
        out = argv[argv.index("--out") + 1]
        with open(out, "w") as fh:
            json.dump({"summary": {"ok": False, "stock_violations": 1}}, fh)
        return 1

    monkeypatch.setattr(conformance, "main", violating)
    with pytest.raises(goldens.ProducerFailed, match="stock_violations"):
        goldens.PINS["conformance_smoke"].render(1)


def test_missing_pin_file_fails_check(tmp_path, monkeypatch, capsys):
    _point(monkeypatch, "issue_order", path=tmp_path / "nope.json")
    assert goldens.main(["issue_order"]) == 1
    assert "no pin file" in capsys.readouterr().err


def test_unknown_pin_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        goldens.main(["no_such_pin"])
    assert exc.value.code == 2
    assert "unknown pins" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["t.txt", "broken.json"])
def test_mismatch_without_field_paths_names_the_first_differing_line(name):
    assert goldens.where(Path(name), "[\nb\n", "[\nB\n") == (
        "line 2: pinned 'b', got 'B'"
    )
