"""Per-SM SBRP hardware state: ODM / EDM / FSM masks and the ACTR.

The three masks are the paper's Section 6 structures:

* **ODM** (order delay mask) — warps stalled enforcing ordering
  (device-scope pRel, dFence) while their persists flush.
* **EDM** (eviction delay mask) — warps stalled because a store or
  eviction would violate PMO.
* **FSM** (flush status mask) — warps whose flushed persists are still
  unacknowledged; a head persist sharing a bit with the FSM must wait
  for the ACTR to reach zero.

The simulator drives control flow through explicit waiter lists, but the
masks are maintained faithfully so tests (and curious users) can observe
exactly the hardware state the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, TYPE_CHECKING

from repro.common.bitmask import WarpMask
from repro.persistency.sbrp.pbuffer import PBEntry, PersistBuffer

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.warp import Warp


@dataclass
class ActrZeroAction:
    """Work to perform the next time the ACTR hits zero."""

    #: Warp to wake (device-scope pRel / dFence issuer), if any.
    warp: Optional["Warp"] = None
    #: Extra effect (flag publication, cache invalidation).
    effect: Optional[Callable[[float], None]] = None


class SBRPState:
    """All SBRP structures of one SM."""

    def __init__(self, sm_id: int, pb_entries: int, max_warps: int) -> None:
        self.sm_id = sm_id
        self.pb = PersistBuffer(pb_entries)
        self.max_warps = max_warps
        self.odm = WarpMask(max_warps)
        self.edm = WarpMask(max_warps)
        self.fsm = WarpMask(max_warps)
        #: Pending (flushed, unacknowledged) persists.
        self.actr = 0
        #: Persists flushed but not yet *accepted* by the persistence
        #: domain.  Persist writes are posted; the window policy paces on
        #: acceptance credits so the drain streams at link bandwidth
        #: instead of one window per ack round trip.
        self.sends_pending = 0
        #: Ack-event staleness guard: bumped by the synchronous
        #: kernel-end drain so in-flight ack events become no-ops.
        self.generation = 0
        #: Ack times of in-flight persists (for the synchronous drain).
        self.inflight_acks: List[float] = []
        #: Sequence number of the youngest ordering entry per warp slot;
        #: a store may only coalesce into a persist entry younger than
        #: its warp's last ordering point.
        self.last_order_seq = [0] * max_warps
        #: Warps stalled on a full persist buffer.
        self.space_waiters: List["Warp"] = []
        #: Warps (evictions) stalled until the ACTR reaches zero.
        self.actr_zero_waiters: List["Warp"] = []
        #: Deferred completions for device-scope pRel / dFence.
        self.actr_zero_actions: List[ActrZeroAction] = []
        #: Drain everything up to this PB sequence regardless of policy.
        self.force_until_seq = 0
        self.pump_scheduled = False
        #: How the last drain scan ended (see ``SBRPModel._pump``).
        self.scan_memo: Optional[tuple] = None
        #: Reused pump callback (one closure per SM, not per schedule).
        self.pump_cb = None

    # ------------------------------------------------------------------
    # mask helpers
    # ------------------------------------------------------------------
    def warp_bit(self, slot: int) -> int:
        if not 0 <= slot < self.max_warps:
            raise IndexError(f"warp slot {slot} out of range")
        return 1 << slot

    def note_order_point(self, slot: int, entry: PBEntry) -> None:
        self.last_order_seq[slot] = entry.seq

    def coalesce_blocked(self, slot: int, entry: PBEntry) -> bool:
        """True when *slot* has an ordering point younger than *entry*,
        so its new store must not coalesce into that entry."""
        return self.last_order_seq[slot] > entry.seq

    # ------------------------------------------------------------------
    # acks
    # ------------------------------------------------------------------
    def add_inflight(self, ack_time: float) -> None:
        self.actr += 1
        self.inflight_acks.append(ack_time)

    def retire_ack(self, ack_time: float) -> None:
        self.actr -= 1
        if self.actr < 0:
            raise AssertionError("ACTR went negative")
        try:
            self.inflight_acks.remove(ack_time)
        except ValueError:
            pass

    def hard_reset_acks(self) -> None:
        """Synchronous drain: discard in-flight bookkeeping and
        invalidate any scheduled ack events."""
        self.generation += 1
        self.actr = 0
        self.sends_pending = 0
        self.inflight_acks.clear()
        self.fsm.reset()
