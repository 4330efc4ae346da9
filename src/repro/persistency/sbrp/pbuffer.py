"""The per-SM FIFO persist buffer (PB) of Section 6.

Each entry is either a *persist* (pointing at a dirty L1 line) or an
*ordering point* (oFence / dFence / scoped pAcq / pRel), tagged with a
Warp BM recording which warp slots issued it.  The buffer is one
insertion-ordered dict of its live entries keyed by sequence number
(the authors' artifact keeps the same ``entryMap``): the drain scan
retires entries from anywhere, and a persist may leave out of FIFO
order when a capacity eviction is allowed to bypass (no ordering entry
precedes it).  A removed entry is gone at once; nothing waits at the
head to be cleaned up.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import islice
from typing import Dict, List, Optional, TYPE_CHECKING

from repro.common.config import Scope

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.warp import Warp


class EntryKind(enum.Enum):
    PERSIST = "persist"
    OFENCE = "ofence"
    DFENCE = "dfence"
    PACQ = "pacq"
    PREL = "prel"

    @property
    def is_order(self) -> bool:
        return self is not EntryKind.PERSIST


@dataclass(slots=True)
class PBEntry:
    """One persist-buffer entry (44 bits of real hardware state)."""

    seq: int
    kind: EntryKind
    warp_mask: int
    #: Line address for persists (the hardware stores an L1 line index).
    line_addr: int = 0
    scope: Optional[Scope] = None
    #: Release payload (device-scope pRel publishes on completion).
    flag_addr: Optional[int] = None
    flag_value: int = 0
    #: Warps stalled until this entry is flushed and acknowledged (the
    #: EDM coalescing-conflict stall of Section 6.1).
    waiters: List["Warp"] = field(default_factory=list)
    #: Warp blocked on this entry's completion (device-scope pRel and
    #: dFence stall their issuer until the ACTR reaches zero).
    waiting_warp: Optional["Warp"] = None


class PersistBuffer:
    """FIFO of :class:`PBEntry`: an insertion-ordered dict of the live
    entries, keyed by sequence number."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._by_seq: Dict[int, PBEntry] = {}
        self._order_entries = 0
        #: Sequence number of the youngest entry ever appended.
        self.last_seq = 0
        #: Bumped by every removal and every in-place Warp BM merge, so a
        #: reader can tell that no live entry left or changed its mask.
        self.edits = 0
        self.peak_occupancy = 0

    # ------------------------------------------------------------------
    # occupancy
    # ------------------------------------------------------------------
    def live_count(self) -> int:
        return len(self._by_seq)

    def is_full(self) -> bool:
        return len(self._by_seq) >= self.capacity

    def has_order_entries(self) -> bool:
        return self._order_entries > 0

    def __len__(self) -> int:
        return len(self._by_seq)

    def __bool__(self) -> bool:
        return bool(self._by_seq)

    # ------------------------------------------------------------------
    # append / lookup
    # ------------------------------------------------------------------
    def append(
        self,
        kind: EntryKind,
        warp_mask: int,
        line_addr: int = 0,
        scope: Optional[Scope] = None,
        flag_addr: Optional[int] = None,
        flag_value: int = 0,
    ) -> PBEntry:
        self.last_seq += 1
        entry = PBEntry(
            seq=self.last_seq,
            kind=kind,
            warp_mask=warp_mask,
            line_addr=line_addr,
            scope=scope,
            flag_addr=flag_addr,
            flag_value=flag_value,
        )
        self._by_seq[entry.seq] = entry
        if kind is not EntryKind.PERSIST:
            self._order_entries += 1
        if len(self._by_seq) > self.peak_occupancy:
            self.peak_occupancy = len(self._by_seq)
        return entry

    def get(self, seq: int) -> Optional[PBEntry]:
        """The live entry with sequence number *seq*, if any."""
        return self._by_seq.get(seq)

    def tail(self) -> Optional[PBEntry]:
        """The youngest live entry (for oFence coalescing)."""
        return next(reversed(self._by_seq.values()), None)

    def merge(self, entry: PBEntry, warp_mask: int) -> None:
        """OR *warp_mask* into a live entry's Warp BM (store and oFence
        coalescing)."""
        entry.warp_mask |= warp_mask
        self.edits += 1

    # ------------------------------------------------------------------
    # removal
    # ------------------------------------------------------------------
    def head(self) -> Optional[PBEntry]:
        """The oldest live entry."""
        return next(iter(self._by_seq.values()), None)

    def pop_head(self) -> PBEntry:
        entry = self.head()
        if entry is None:
            raise IndexError("pop from empty persist buffer")
        self.remove(entry)
        return entry

    def remove(self, entry: PBEntry) -> None:
        """Retire an entry from anywhere in the buffer (the drain scan)."""
        if self._by_seq.pop(entry.seq, None) is None:
            raise ValueError(f"entry {entry.seq} already removed")
        self.edits += 1
        if entry.kind is not EntryKind.PERSIST:
            self._order_entries -= 1

    def tombstone(self, entry: PBEntry) -> None:
        """Flush a persist out of FIFO order (allowed eviction bypass)."""
        if entry.kind is not EntryKind.PERSIST:
            raise ValueError("only persists can be tombstoned")
        self.remove(entry)

    def order_entry_before(self, seq: int) -> bool:
        """True when a live ordering entry precedes *seq* in the FIFO
        (the paper's eviction-legality check)."""
        if not self._order_entries:
            return False
        for entry in self._by_seq.values():
            if entry.seq >= seq:
                break
            if entry.kind is not EntryKind.PERSIST:
                return True
        return False

    def entries(self, start: int = 0) -> List[PBEntry]:
        """Live entries in FIFO order, from the *start*-th (snapshot)."""
        if start:
            return list(islice(self._by_seq.values(), start, None))
        return list(self._by_seq.values())
