"""Recovery under load: fractional crash points through the serving
stream."""

import pytest

from repro.apps import build_app
from repro.common.config import ModelName, small_system
from repro.crash import CrashHarness

#: Small batches so crashes land between several group commits.
SMALL = dict(n_requests=96, n_keys=96, capacity=256, batch_requests=24)


def harness(model=ModelName.SBRP):
    return CrashHarness(
        lambda: build_app("serve_kvs", **SMALL), small_system(model)
    )


class TestFractionalCrashPoints:
    @pytest.mark.parametrize("fraction", [0.0, 0.25, 0.5, 0.75])
    @pytest.mark.parametrize(
        "model", [ModelName.SBRP, ModelName.GPM, ModelName.EPOCH]
    )
    def test_partial_executions_recover_consistent(self, model, fraction):
        report = harness(model).crash_at_fraction(fraction, complete=False)
        assert report.consistent, report.error

    def test_crash_after_sync_is_complete(self):
        # Fraction 1.0 crashes after the final sync: every write is
        # durable, so recovery must land on the *complete* table.
        report = harness().crash_at_fraction(1.0, complete=True)
        assert report.consistent, report.error
        assert report.completed, report.error

    def test_recovery_makes_forward_progress(self):
        # Re-running the stream from a mid-flight image must finish it.
        report = harness().crash_at_fraction(0.5, complete=True)
        assert report.consistent, report.error
        assert report.completed, report.error
