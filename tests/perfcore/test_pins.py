"""Every behaviour pin in the manifest reproduces byte for byte.

Each pin of :data:`repro.perfcore.goldens.PINS` is produced in-process
and compared with its committed file; a mismatch names the field paths
that moved.  ``figure_tables`` (the whole quick-preset sweep, ~25 s at
two workers) is checked by CI's ``pins`` job, which runs every pin at
``--workers 1 2``.
"""

from __future__ import annotations

import pytest

from repro.perfcore.goldens import PINS, where

#: Pins too slow for tier-1; CI's ``pins`` job checks them.
CI_ONLY = {"figure_tables"}


@pytest.mark.parametrize("name", [name for name in PINS if name not in CI_ONLY])
def test_pin_reproduces(name: str):
    pin = PINS[name]
    pinned = pin.file.read_text(encoding="utf-8")
    got = pin.render(1)
    assert got == pinned, f"{name} moved at {where(pin.path, pinned, got)}"
