"""Functional value images.

The simulator separates *timing* (cycles, bandwidth) from *values*.  All
values are 4-byte words held in sparse dictionaries:

* ``visible`` — the globally shared image behind the L2: what any SM
  reads on an L1 miss, and where flushed lines land.
* ``durable`` — the persistence domain: updated only when an ADR memory
  controller accepts a persist.  A crash discards everything else.

Unwritten words read as zero, matching ``cudaMemset``-style zeroed
allocations and giving crash images a well-defined "never written" state.
"""

from __future__ import annotations

from typing import Dict, Mapping

from repro.memory.address_space import is_pm_addr

#: All functional accesses are 4-byte words.
WORD_SIZE = 4


def check_word_aligned(addr: int) -> None:
    if addr % WORD_SIZE:
        raise ValueError(f"address {addr:#x} is not word aligned")


class BackingStore:
    """The two value images plus helpers to move words between them."""

    def __init__(self) -> None:
        self.visible: Dict[int, int] = {}
        self.durable: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # visible image
    # ------------------------------------------------------------------
    def read(self, addr: int) -> int:
        check_word_aligned(addr)
        return self.visible.get(addr, 0)

    def write(self, addr: int, value: int) -> None:
        check_word_aligned(addr)
        self.visible[addr] = int(value)

    # ------------------------------------------------------------------
    # durable image
    # ------------------------------------------------------------------
    def persist(self, words: Mapping[int, int]) -> None:
        """Land a set of words in the persistence domain."""
        for addr, value in words.items():
            check_word_aligned(addr)
            if not is_pm_addr(addr):
                raise ValueError(f"persist of non-PM address {addr:#x}")
            self.durable[addr] = int(value)

    def durable_read(self, addr: int) -> int:
        check_word_aligned(addr)
        return self.durable.get(addr, 0)

    def load_pm_image(self, image: Mapping[int, int]) -> None:
        """Install a PM image (post-crash restart): durable == visible."""
        for addr in image:
            if not is_pm_addr(addr):
                raise ValueError(f"PM image contains volatile addr {addr:#x}")
        # In-place (clear + update) rather than rebinding: the fast SM
        # caches references to these dicts, and callers holding a ref
        # must observe the restart too.
        self.durable.clear()
        self.durable.update(image)
        # After restart, the visible PM contents are exactly the durable
        # ones; volatile memory starts zeroed.
        self.visible.clear()
        self.visible.update(image)
