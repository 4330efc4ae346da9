"""The pin management CLI: check against and regenerate the grid pins.

``python -m repro.perfcore.goldens`` owns ``grid_pins.json``: check mode
re-runs every cell and diffs it against the committed file;
``--regenerate`` re-pins, but refuses to start from a git-dirty pin
file (that is what a hand-edited baseline looks like) unless
``--force`` is given.
"""

from __future__ import annotations

import json
import subprocess
from pathlib import Path

import pytest

from repro.perfcore import goldens

COMMITTED = Path(__file__).parent / "grid_pins.json"


def test_check_mode_passes_on_committed_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert goldens.main(["--file", str(COMMITTED), "--out", str(out)]) == 0
    assert "all 82 cells match" in capsys.readouterr().err
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["total"] == 82 and doc["mismatched"] == []


def test_check_mode_fails_with_field_paths(tmp_path, capsys):
    pins = json.loads(COMMITTED.read_text(encoding="utf-8"))
    pins["sim.sbrp.scan"]["cycles"] += 1.0
    skewed = tmp_path / "grid_pins.json"
    skewed.write_text(goldens.render_pins(pins), encoding="utf-8")
    assert goldens.main(
        ["--file", str(skewed), "--cases", "sim.sbrp.scan", "--quiet",
         "--out", str(tmp_path / "report.json")]
    ) == 1
    err = capsys.readouterr().err
    assert "diverged" in err
    assert "sim.sbrp.scan.cycles" in err


def test_missing_file_is_an_error(tmp_path, capsys):
    assert goldens.main(["--file", str(tmp_path / "nope.json")]) == 1
    assert "no pin file" in capsys.readouterr().err


@pytest.fixture
def pin_repo(tmp_path):
    """A scratch git repo with the real pins committed at HEAD."""
    subprocess.run(["git", "init", "-q", str(tmp_path)], check=True)
    path = tmp_path / "grid_pins.json"
    path.write_text(COMMITTED.read_text(encoding="utf-8"), encoding="utf-8")
    env_args = ["-c", "user.email=t@t", "-c", "user.name=t"]
    subprocess.run(
        ["git", *env_args, "-C", str(tmp_path), "add", path.name], check=True
    )
    subprocess.run(
        ["git", *env_args, "-C", str(tmp_path), "commit", "-q", "-m", "pin"],
        check=True,
    )
    return path


def test_regenerate_round_trips_committed_cases(pin_repo, capsys):
    assert goldens.main(["--file", str(pin_repo), "--regenerate"]) == 0
    assert "pinned 82 cells" in capsys.readouterr().out
    # The timing core still reproduces the committed pin byte for byte.
    assert pin_repo.read_bytes() == COMMITTED.read_bytes()


def test_regenerate_refuses_dirty_file(pin_repo, capsys):
    pins = json.loads(pin_repo.read_text(encoding="utf-8"))
    pins["sim.sbrp.scan"]["cycles"] += 1.0
    pin_repo.write_text(goldens.render_pins(pins), encoding="utf-8")
    assert goldens.main(["--file", str(pin_repo), "--regenerate"]) == 1
    assert "refusing to regenerate" in capsys.readouterr().err
    # The hand-edit is left in place, not silently overwritten.
    assert json.loads(pin_repo.read_text(encoding="utf-8")) == pins
    # --force re-pins from a fresh sweep, discarding the edit.
    assert goldens.main(
        ["--file", str(pin_repo), "--regenerate", "--force"]
    ) == 0
    assert pin_repo.read_bytes() == COMMITTED.read_bytes()


def test_regenerate_covers_the_whole_grid():
    with pytest.raises(SystemExit):
        goldens.main(["--regenerate", "--cases", "sim.sbrp.scan"])
