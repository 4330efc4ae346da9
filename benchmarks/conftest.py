"""Shared fixtures for the figure benchmarks.

Every benchmark regenerates one figure of the paper on the ``quick``
workload preset (full Table 1 machine, scaled-down inputs), prints the
resulting table (visible with ``pytest -s``), and appends it to
``figures_output.txt`` next to this file so the tables survive pytest's
output capture.

All benchmarks share one :class:`repro.exec.Executor`, so baselines that
recur across figures simulate once per session; every session simulates
afresh.  Fan the scenarios out with::

    pytest benchmarks/ --workers 4            # parallel fan-out
"""

import pathlib

import pytest

from repro.exec import Executor
from repro.exec.executor import positive_int

FIGURES_FILE = pathlib.Path(__file__).parent / "figures_output.txt"


def pytest_addoption(parser):
    parser.addoption(
        "--trace-dir",
        action="store",
        default=None,
        help=(
            "directory for per-scenario Chrome/Perfetto traces and "
            "counter CSVs (tracing is off without it)"
        ),
    )
    parser.addoption(
        "--workers",
        action="store",
        type=positive_int,
        default=1,
        help="worker processes for scenario execution (1 = serial)",
    )


@pytest.fixture(scope="session", autouse=True)
def _fresh_figures_file():
    FIGURES_FILE.write_text("")
    yield


@pytest.fixture(scope="session")
def preset() -> str:
    return "quick"


@pytest.fixture(scope="session")
def trace_dir(request):
    return request.config.getoption("--trace-dir")


@pytest.fixture(scope="session")
def executor(request) -> Executor:
    """One executor per benchmark session: dedupe + workers."""
    return Executor(workers=request.config.getoption("--workers"))


def emit(table) -> None:
    text = table.to_ascii()
    print()
    print(text)
    with FIGURES_FILE.open("a") as fh:
        fh.write(text + "\n\n")
