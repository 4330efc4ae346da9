"""Shared kernel-level helpers for the applications."""

from __future__ import annotations

from typing import Generator

from repro.common.config import Scope
from repro.gpu.warp import WarpCtx

#: Log records are sealed with this magic so a torn record is detectable.
SEAL = 0x5EA1

#: Sentinel for "never persisted" (all app values are >= 1).
EMPTY = 0


def spin_pacq(w: WarpCtx, addr: int, scope: Scope) -> Generator:
    """Spin on a persist acquire until the flag is released (reads
    non-zero); the SM retries the poll.

    Returns the acquired flag value.  Usage::

        value = yield from spin_pacq(w, flag_addr, Scope.BLOCK)
    """
    return (yield w.pacq(addr, scope, spin=True))
