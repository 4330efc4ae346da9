"""Mutation teeth: deliberately broken SBRP variants the oracle must catch.

A conformance harness that has never failed proves nothing — maybe the
simulator is correct, maybe the oracle is blind.  Each mutant here
plants one specific violation of the SBRP specification (a shortcut a
real implementation could plausibly take); the conformance run asserts
that the differential oracle flags every one of them, and shrinks the
divergence to a minimal litmus program.

Mutants are registered **by name** so they can cross process boundaries
inside a :class:`~repro.exec.jobs.ScenarioJob` spec: the worker looks
the class up in :data:`MUTANTS` and passes a factory to
:func:`repro.formal.bridge.simulate_program` via ``model_factory``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Optional, Type

from repro.common.config import Scope, SystemConfig
from repro.common.errors import ConfigError
from repro.metrics.registry import MetricsRegistry
from repro.persistency.sbrp.model import SBRPModel
from repro.persistency.sbrp.pbuffer import EntryKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.gpu.sm import SM
    from repro.gpu.warp import Warp


class PrelEagerFlagMutant(SBRPModel):
    """Block-scope pRel persists its PM-resident flag at issue time.

    The buggy shortcut: "the FIFO orders the flag anyway, so write it to
    NVM immediately".  It does not — WPQ *acceptance* order across NVM
    partitions is not global, so under congestion the flag can become
    durable before po-earlier persists stuck behind a full WPQ.  The
    correct model defers the flag's NVM write to the entry's FIFO
    retirement plus ACTR-zero (see ``SBRPModel._order_point_at_head``).
    """

    def prel(
        self, sm: "SM", warp: "Warp", addr: int, value: int, scope: Scope, now: float
    ) -> Optional[float]:
        scope = self._effective_scope(scope)
        if scope is not Scope.BLOCK:
            return super().prel(sm, warp, addr, value, scope, now)
        st = self.states[sm.sm_id]
        if st.pb.is_full():
            return self._stall_for_space(sm, st, warp)
        bit = st.warp_bit(warp.slot)
        # flag_addr stays None: retirement must NOT persist the flag a
        # second time — the whole point is that it already (wrongly) did.
        entry = st.pb.append(EntryKind.PREL, bit, scope=scope)
        st.note_order_point(warp.slot, entry)
        self._publish(sm, addr, value, now)
        self.stats.add("mutant.eager_flag_persists")
        self._schedule_pump(sm)
        return now + 2


class PrelNoOdmMutant(SBRPModel):
    """Device-scope pRel skips the ODM: no force-drain, no ACTR wait.

    The release completes (and publishes + persists its flag) the cycle
    it issues, as if it were block scope — the acquirer can observe the
    flag while the releaser's persists are still buffered, and a PM
    flag can be accepted before the data it guards.
    """

    def prel(
        self, sm: "SM", warp: "Warp", addr: int, value: int, scope: Scope, now: float
    ) -> Optional[float]:
        st = self.states[sm.sm_id]
        if st.pb.is_full():
            return self._stall_for_space(sm, st, warp)
        bit = st.warp_bit(warp.slot)
        entry = st.pb.append(EntryKind.PREL, bit, scope=Scope.BLOCK)
        st.note_order_point(warp.slot, entry)
        self._publish(sm, addr, value, now)
        self.stats.add("mutant.no_odm_releases")
        self._schedule_pump(sm)
        return now + 2


class PbLifoDrainMutant(SBRPModel):
    """The drain pump scans the persist buffer newest-first.

    Breaks the FIFO property the whole ordering argument rests on: a
    persist appended after an oFence is flushed before the persists the
    fence was supposed to order it behind.
    """

    def _pump(self, sm: "SM", now: float) -> None:
        st = self.states[sm.sm_id]
        st.pump_scheduled = False
        if st.actr == 0:
            st.fsm = 0
        hold = 0
        for entry in reversed(list(st.pb.entries())):  # the mutation
            if entry.kind is EntryKind.PERSIST:
                if entry.warp_mask & (st.fsm | hold):
                    hold |= entry.warp_mask
                    continue
                if not self._policy_allows(st, entry):
                    break
                st.pb.remove(entry)
                self._flush_entry(sm, st, entry, now)
            else:
                if entry.warp_mask & hold:
                    hold |= entry.warp_mask
                    continue
                st.pb.remove(entry)
                self._order_point_at_head(sm, st, entry, now)
            self._wake_space_waiters(sm, st, now)
        if st.actr == 0:
            st.fsm = 0
            self._resolve_actr_zero(sm, st, now)


class AckWithoutFlushMutant(SBRPModel):
    """Drained lines are acknowledged without ever reaching the WPQ.

    The drain path makes the write *visible* (backing store) and
    fabricates a prompt ack, but never calls ``persist_line`` — nothing
    becomes durable.  Every crash image is the (allowed) empty subset,
    so only the dFence-completion and final-image obligations notice.
    """

    def _flush_entry(self, sm: "SM", st, entry, now: float) -> None:
        line = sm.l1.lookup(entry.line_addr, now)
        if line is None or not line.dirty:
            for waiter in entry.waiters:
                st.edm &= ~st.warp_bit(waiter.slot)
                sm.wake_warp(waiter, now + 1)
            return
        for addr, value in line.dirty_words.items():
            sm.backing.write(addr, value)
        line.dirty = False
        line.dirty_words = {}
        line.pb_index = None
        ack_time = now + self.config.gpu.l2_latency
        st.add_inflight(ack_time)
        st.sends_pending += 1
        self._schedule_ack(sm, st, now + 1, ack_time, entry.waiters)
        self.stats.add("mutant.fake_acks")


class OfenceNoopMutant(SBRPModel):
    """oFence completes without appending an ordering entry.

    Persists on either side of the fence drain independently; under WPQ
    congestion the po-later persist is accepted first.
    """

    def ofence(self, sm: "SM", warp: "Warp", now: float) -> Optional[float]:
        self.stats.add("mutant.ofence_noops")
        return now + 1


#: name -> mutant class.  Names are the cross-process currency: job
#: specs carry the string, workers resolve it here.
MUTANTS: Dict[str, Type[SBRPModel]] = {
    "prel_eager_flag": PrelEagerFlagMutant,
    "prel_no_odm": PrelNoOdmMutant,
    "pb_lifo_drain": PbLifoDrainMutant,
    "ack_without_flush": AckWithoutFlushMutant,
    "ofence_noop": OfenceNoopMutant,
}


def mutant_names() -> List[str]:
    return sorted(MUTANTS)


def build_mutant(name: str) -> Callable[[SystemConfig, MetricsRegistry], SBRPModel]:
    """A ``model_factory`` for :func:`repro.formal.bridge.simulate_program`."""
    try:
        cls = MUTANTS[name]
    except KeyError:
        raise ConfigError(
            f"unknown SBRP mutant {name!r}; have {mutant_names()}"
        ) from None
    return cls


def describe_mutants() -> Mapping[str, str]:
    """name -> first docstring line, for ``--list-mutants``."""
    return {
        name: (cls.__doc__ or "").strip().splitlines()[0]
        for name, cls in MUTANTS.items()
    }
