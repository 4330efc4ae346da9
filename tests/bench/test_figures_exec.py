"""Figure drivers on the execution subsystem: dedupe and parity.

These run real (quick-preset, single-app) figure scenarios, so they are
the slowest tests in the suite — but they pin the properties the
subsystem exists for: shared baselines simulate once, and worker count
never changes the data.
"""

import pytest

from repro.bench import (
    ablation_drain_policy,
    figure6,
    figure8,
    figure9,
    figure10a,
    figure10b,
    figure10c,
    figure11,
)
from repro.exec import Executor


class TestCrossFigureDedupe:
    def test_two_figure_run_submits_each_unique_job_exactly_once(self):
        """Figure 8's four scenario configs are a subset of Figure 6's
        five, so a shared executor must simulate only Figure 6's jobs."""
        ex = Executor(workers=1)
        figure6(preset="quick", apps=["srad"], executor=ex)
        assert ex.stats.executed == 5  # GPM + {Epoch,SBRP} x {far,near}
        figure8(preset="quick", apps=["srad"], executor=ex)
        assert ex.stats.executed == 5  # nothing new: all four were memoized
        assert ex.stats.submitted == 9
        assert ex.stats.memo_hits == 4
        assert ex.stats.failed == 0

    @pytest.mark.parametrize(
        "figure, submitted, executed",
        [
            # Figure 6's Epoch-far and SBRP-far jobs, exactly.
            (figure9, 2, 0),
            # Epoch-near and the default PB coverage (50%).
            (figure10a, 5, 3),
            # Epoch and SBRP at the default NVM bandwidth (100%).
            (figure10b, 6, 4),
            # Epoch-near and the default drain window (6).
            (figure10c, 6, 4),
            # Epoch-near and the default drain policy (window).
            (ablation_drain_policy, 4, 2),
        ],
    )
    def test_sensitivity_defaults_are_answered_by_figure6(
        self, figure, submitted, executed
    ):
        """The sweep points at the default knob value are Figure 6's
        runs; their trace tags must not stop the reuse."""
        ex = Executor(workers=1)
        figure6(preset="quick", apps=["reduction"], executor=ex)
        figure(preset="quick", apps=["reduction"], executor=ex)
        assert ex.stats.submitted == 5 + submitted
        assert ex.stats.executed == 5 + executed


class TestWorkerParity:
    def test_parallel_figure_matches_serial(self):
        serial = figure6(preset="quick", apps=["reduction"])
        parallel = figure6(
            preset="quick",
            apps=["reduction"],
            executor=Executor(workers=2),
        )
        assert parallel.to_csv() == serial.to_csv()


@pytest.fixture(scope="module")
def standalone():
    """Figure 6 and Figure 11 for reduction, each on its own executor."""
    return {
        "6": figure6(preset="quick", apps=["reduction"]).to_csv(),
        "11": figure11(preset="quick", apps=["reduction"]).to_csv(),
    }


class TestFigure11FromFigure6:
    """Figure 6's PM-near runs also answer Figure 11's recovery cells."""

    def test_figure11_after_figure6_simulates_nothing(self, standalone):
        ex = Executor(workers=1)
        table6 = figure6(preset="quick", apps=["reduction"], executor=ex)
        table11 = figure11(preset="quick", apps=["reduction"], executor=ex)
        assert ex.stats.executed == 5
        assert ex.stats.memo_hits == 2
        assert table6.to_csv() == standalone["6"]
        assert table11.to_csv() == standalone["11"]

    def test_worker_count_does_not_change_either_table(self, standalone):
        ex = Executor(workers=2)
        table6 = figure6(preset="quick", apps=["reduction"], executor=ex)
        table11 = figure11(preset="quick", apps=["reduction"], executor=ex)
        assert ex.stats.executed == 5
        assert table6.to_csv() == standalone["6"]
        assert table11.to_csv() == standalone["11"]


class TestRecoveryJobs:
    def test_figure11_runs_through_executor(self):
        ex = Executor(workers=1)
        table = figure11(preset="quick", apps=["reduction"], executor=ex)
        assert table.cell("reduction", "Epoch") == pytest.approx(1.0)
        assert ex.stats.executed == 2

        again = figure11(preset="quick", apps=["reduction"], executor=ex)
        assert ex.stats.executed == 2  # the memo answers the rerun
        assert again.to_csv() == table.to_csv()
