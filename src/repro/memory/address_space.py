"""Unified virtual address space with volatile and persistent regions.

Mirrors the paper's software model (Section 3): both NVM and volatile
memory are load/store accessible from the GPU; applications choose where
each data structure lives.  PM allocations carry a *name* so they can be
re-opened after a crash (the PM-near namespace table / PM-far file pools
are built on top in :mod:`repro.memory.namespace`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.common.errors import MemoryError_

#: Persistent memory starts at this virtual address.  Everything below is
#: volatile (GDDR-backed); everything at or above is NVM-backed.
PM_BASE = 1 << 40


@dataclass(frozen=True)
class Allocation:
    """One allocated region of the virtual address space."""

    base: int
    size: int
    persistent: bool
    name: Optional[str] = None

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.end

    def word(self, index: int) -> int:
        """Address of the *index*-th 4-byte word of this region."""
        addr = self.base + 4 * index
        if addr >= self.end:
            raise MemoryError_(
                f"word {index} out of bounds for region of {self.size} bytes"
            )
        return addr


def is_pm_addr(addr: int) -> bool:
    """True when *addr* lies in the persistent region."""
    return addr >= PM_BASE


class AddressSpace:
    """Bump allocator over the two regions of the unified address space."""

    def __init__(self, alignment: int = 128) -> None:
        self.alignment = alignment
        self._volatile_top = alignment
        self._pm_top = PM_BASE
        self._allocations: Dict[int, Allocation] = {}
        self._named: Dict[str, Allocation] = {}

    def alloc(
        self,
        size: int,
        persistent: bool = False,
        name: Optional[str] = None,
    ) -> Allocation:
        """Allocate *size* bytes; persistent regions may carry a name."""
        if size <= 0:
            raise MemoryError_(f"allocation size must be positive, got {size}")
        if name is not None and not persistent:
            raise MemoryError_("only persistent allocations can be named")
        if name is not None and name in self._named:
            raise MemoryError_(f"PM name already allocated: {name!r}")
        size = self._round_up(size)
        if persistent:
            base = self._pm_top
            self._pm_top += size
        else:
            base = self._volatile_top
            self._volatile_top += size
        allocation = Allocation(base, size, persistent, name)
        self._allocations[base] = allocation
        if name is not None:
            self._named[name] = allocation
        return allocation

    def free(self, allocation: Allocation) -> None:
        """Release a region (bump allocator: bookkeeping only)."""
        if allocation.base not in self._allocations:
            raise MemoryError_(f"unknown allocation at {allocation.base:#x}")
        del self._allocations[allocation.base]
        if allocation.name is not None:
            self._named.pop(allocation.name, None)

    def lookup_name(self, name: str) -> Allocation:
        """Re-open a named persistent region (the recovery path)."""
        try:
            return self._named[name]
        except KeyError:
            raise MemoryError_(f"no PM region named {name!r}") from None

    def region_of(self, addr: int) -> Optional[Allocation]:
        """Find the allocation containing *addr* (linear scan; debug aid)."""
        for allocation in self._allocations.values():
            if allocation.contains(addr):
                return allocation
        return None

    def _round_up(self, size: int) -> int:
        rem = size % self.alignment
        return size if rem == 0 else size + self.alignment - rem
