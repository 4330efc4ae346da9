"""The issue-order corpus exercises what its pin is meant to fix.

The pin itself (``issue_order_pins.json``) is checked with every other
pin in ``test_pins.py``.
"""

from repro.perfcore.issue_order import corpus


def test_corpus_covers_blocks_and_barriers():
    workloads = corpus()
    assert {n for n, _, _ in workloads} == {1, 2}
    assert any(barriers for _, _, barriers in workloads)
    assert any(not barriers for _, _, barriers in workloads)
