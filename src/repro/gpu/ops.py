"""Warp-level operations yielded by kernel generators.

A kernel is a Python generator over a :class:`~repro.gpu.warp.WarpCtx`;
every ``yield`` hands one of these operations to the SM, which simulates
its timing and (for loads, acquires, atomics) sends the result back into
the generator.

Addresses and values are per-lane sequences of Python ints, converted
once when the op is built (a scalar is repeated across the lanes, a
numpy lane vector is unpacked with ``tolist``); ``mask`` is a per-lane
list of truth values selecting the active lanes (SIMT predication), or
``None`` when every lane is active.  A tuple of ints (addresses, values)
or of ``True``/``False`` (a mask) with one entry per lane is kept as
is: it is immutable, so one lane vector can serve many ops, and a
recorded op stream (:func:`repro.serve.app.stream_ops`) replays without
converting anything.  Nothing downstream writes to an op's lanes.
Scalar ops (``PAcq``/``PRel``) take a single address because in every
paper workload a single leader lane performs the release/acquire.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.common.config import Scope


#: The element types of a lane tuple :func:`_as_lanes` keeps as is.
_INT_ONLY = {int}


def _as_lanes(values: Sequence[int] | np.ndarray | int, lanes: int) -> Sequence[int]:
    """Per-lane ints of *values*: a lane vector, or a scalar repeated.
    A tuple of *lanes* ints is returned as is."""
    if type(values) is np.ndarray:  # hot path: already a lane array
        if values.shape != (lanes,):
            raise ValueError(
                f"expected {lanes} lane values, got shape {values.shape}"
            )
        if values.dtype != np.int64:
            values = values.astype(np.int64)
        return values.tolist()
    if type(values) is int:
        return [values] * lanes
    if (
        type(values) is tuple
        and len(values) == lanes
        and set(map(type, values)) == _INT_ONLY
    ):
        return values
    if np.isscalar(values):
        return [int(values)] * lanes
    arr = np.asarray(values, dtype=np.int64)
    if arr.shape != (lanes,):
        raise ValueError(f"expected {lanes} lane values, got shape {arr.shape}")
    return arr.tolist()


def _as_mask(
    mask: Optional[Sequence[bool]], lanes: int
) -> Optional[Sequence[bool]]:
    """Per-lane activity of *mask*; ``None`` (every lane) stays ``None``
    and a tuple of *lanes* ``True``/``False`` values is returned as is."""
    if mask is None:
        return None
    if (
        type(mask) is tuple
        and len(mask) == lanes
        and mask.count(True) + mask.count(False) == lanes
    ):
        return mask
    arr = np.asarray(mask, dtype=bool)
    if arr.shape != (lanes,):
        raise ValueError(f"expected {lanes} mask lanes, got shape {arr.shape}")
    return arr.tolist()


@dataclass(slots=True)
class Op:
    """Base class of all warp-level operations.

    All ops are ``slots`` dataclasses: they are created once per executed
    warp instruction, so trimming the per-instance ``__dict__`` is a
    measurable win on the simulator hot path.
    """


@dataclass(slots=True)
class Compute(Op):
    """Pure ALU work costing a fixed number of cycles."""

    cycles: int = 4


@dataclass(slots=True)
class Ld(Op):
    """Per-lane loads; the SM sends back an int64 array of lane values."""

    addrs: Sequence[int]
    mask: Optional[Sequence[bool]]


@dataclass(slots=True)
class St(Op):
    """Per-lane stores (volatile or PM, decided per address).

    The SM partitions the lanes once per op and caches the result here
    (``None`` = not yet split), so a store stalled by the persistency
    model resumes from the lines it had left rather than re-splitting.
    """

    addrs: Sequence[int]
    values: Sequence[int]
    mask: Optional[Sequence[bool]]
    pm_lines: Optional[dict] = None
    vol_words: Optional[dict] = None
    vol_lines: Optional[set] = None


@dataclass(slots=True)
class AtomicAdd(Op):
    """Per-lane atomic fetch-and-add performed at the L2 point of
    coherence; returns the per-lane old values."""

    addrs: Sequence[int]
    values: Sequence[int]
    mask: Optional[Sequence[bool]]


@dataclass(slots=True)
class OFence(Op):
    """SBRP ordering fence: intra-thread PMO, buffered (Box 2)."""


@dataclass(slots=True)
class DFence(Op):
    """SBRP durability fence: stalls until prior persists are durable."""


@dataclass(slots=True)
class PAcq(Op):
    """Scoped persist acquire on one flag word; returns its value.

    A *spinning* acquire carries its loop's exit test: the SM retries it
    until the flag reads non-zero (``spin``), or at least ``at_least``
    when that is set, and only then returns the value to the kernel.  A
    plain acquire returns whatever it reads, 0 included.
    """

    addr: int
    scope: Scope
    spin: bool = False
    at_least: Optional[int] = None


@dataclass(slots=True)
class PRel(Op):
    """Scoped persist release: publish *value* at *addr* once ordering
    obligations are met."""

    addr: int
    value: int
    scope: Scope


@dataclass(slots=True)
class ThreadFence(Op):
    """Classic CUDA ``__threadfence`` family; affects volatile *and*
    persistent writes (Section 5.2).  GPM's epoch barrier is the
    system-scoped flavour."""

    scope: Scope = Scope.DEVICE


@dataclass(slots=True)
class BlockBarrier(Op):
    """``__syncthreads()``: all warps of the threadblock rendezvous."""
