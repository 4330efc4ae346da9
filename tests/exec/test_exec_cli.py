"""The executor-backed CLI drivers: shared option checks and the sweep."""

import pytest

from repro.check import conformance
from repro.exec import sweep
from repro.faults import campaign
from repro.perfcore import goldens
from repro.serve import bench

#: Every driver that takes ``--workers``.
WORKER_CLIS = {
    "sweep": sweep.main,
    "campaign": campaign.main,
    "serve": bench.main,
    "conformance": conformance.main,
    "goldens": goldens.main,
}
#: The drivers that also take the pool's ``--timeout``.
POOL_CLIS = ("sweep", "campaign", "serve")


def _rejects(cli, args, message, capsys):
    with pytest.raises(SystemExit) as exc:
        WORKER_CLIS[cli](args)
    assert exc.value.code == 2  # a usage error, never a finding
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("cli", sorted(WORKER_CLIS))
@pytest.mark.parametrize(
    "value, message",
    [
        ("0", "argument --workers: must be >= 1, got 0"),
        ("-3", "argument --workers: must be >= 1, got -3"),
        ("two", "argument --workers: invalid int value: 'two'"),
    ],
    ids=["zero", "negative", "not-an-int"],
)
def test_bad_workers_rejected(cli, value, message, capsys):
    _rejects(cli, ["--workers", value], message, capsys)


@pytest.mark.parametrize("cli", POOL_CLIS)
@pytest.mark.parametrize(
    "args, message",
    [
        (["--timeout", "0"], "argument --timeout: must be > 0, got 0"),
        (["--timeout", "-1"], "argument --timeout: must be > 0, got -1"),
        (["--timeout", "nan"], "argument --timeout: must be > 0, got nan"),
        # Jobs are deterministic and fail at once: there is no retry.
        (["--retries", "1"], "unrecognized arguments: --retries 1"),
        (["--backoff", "1"], "unrecognized arguments: --backoff 1"),
    ],
    ids=["timeout-zero", "timeout-negative", "timeout-nan", "retries", "backoff"],
)
def test_bad_pool_values_rejected(cli, args, message, capsys):
    _rejects(cli, args, message, capsys)


class TestSweep:
    def _footer(self, capsys, figures, *extra):
        argv = ["--figures", *figures, "--apps", "reduction", "--quiet"]
        assert sweep.main([*argv, *extra]) == 0
        out, err = capsys.readouterr()
        footer = err.strip().splitlines()[-1]
        assert footer.startswith("[exec]")
        return out, footer

    def test_figures_run_in_registry_order(self, capsys):
        """Figure 6's recovering PM-near runs answer Figure 8's plain
        ones only when Figure 6 runs first, whatever the order given."""
        out, footer = self._footer(capsys, ["8", "6"])
        assert "9 submitted, 5 executed, 4 memo hits" in footer
        assert out.index("Figure 6") < out.index("Figure 8")

    def test_a_figure_named_twice_runs_once(self, capsys):
        out, footer = self._footer(capsys, ["11", "11"])
        assert "2 submitted, 2 executed" in footer
        assert out.count("Figure 11") == 1

    def test_traced_figure11_reuses_figure6_runs(self, capsys, tmp_path):
        """With a trace directory Figure 11's twins are traced like
        Figure 6's PM-near runs, so they are still answered by them."""
        _, footer = self._footer(
            capsys, ["6", "11"], "--trace-dir", str(tmp_path)
        )
        assert "7 submitted, 5 executed, 2 memo hits" in footer
        names = [p.name for p in tmp_path.iterdir()]
        assert len(names) == 5 and all(n.endswith(".trace.json") for n in names)
