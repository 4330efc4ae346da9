"""Model validation: run litmus programs on the timing simulator.

Each litmus thread becomes one warp (leader lane active); the program's
crash images observed from the simulator's persist log at every instant
must be a subset of what the axiomatic model allows — if the simulator
ever produces an image the model forbids, the hardware implementation
violates its own specification.

:func:`simulate_program` returns not just the deduplicated crash images
but the *observed execution* — which release each acquire actually
read, when each dFence completed and what was durable at that instant,
and the final post-drain image — so the differential oracle
(:mod:`repro.check.oracle`) can check the durability obligations that
depend on the witness, not only unconstrained downward closure.  The
conformance checker and the fault campaign's formal oracle both judge
its observations there.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.common.config import ModelName, SystemConfig, small_system
from repro.common.errors import ConfigError
from repro.formal.events import EventKind, LitmusProgram
from repro.system import GPUSystem

#: Word spacing between litmus locations.  One cache line apart, so each
#: location gets its own persist record and (with the default two-
#: partition memory system) consecutive locations land on *different*
#: NVM partitions — exactly the layout where acceptance-order bugs show.
LOC_STRIDE = 128


#: An image in *key form*: the values of a program's PM locations in
#: location order, zeros included (see :func:`pm_locations`).
ImageKey = Tuple[int, ...]


def pm_locations(program: LitmusProgram) -> List[str]:
    """*program*'s PM locations (``p*`` names) in layout order: the
    order of an :data:`ImageKey`'s values."""
    return sorted(
        {e.loc for e in program.events() if e.loc is not None and e.loc.startswith("p")}
    )


def image_key(image: Mapping[str, int], locations: Sequence[str]) -> ImageKey:
    """*image* (location -> value, absent = 0) in key form."""
    return tuple(image.get(loc, 0) for loc in locations)


@dataclass
class SimulationObservation:
    """Everything one simulator run of a litmus program revealed.

    Images are kept in key form (:data:`ImageKey` over ``locations``),
    the form the oracle judges them in; :attr:`images`,
    :attr:`final_image` and :attr:`dfence_images` name them."""

    #: The program's PM locations: the order of every key's values.
    locations: Sequence[str] = ()
    #: Distinct durable PM images in order of first appearance, with the
    #: earliest time each was observed.
    keys: List[Tuple[float, ImageKey]] = field(default_factory=list)
    #: The post-``sync()`` image: every buffered persist has drained.
    final_key: ImageKey = ()
    #: dFence eid -> (completion time, durable image at that instant).
    dfence_keys: Dict[int, Tuple[float, ImageKey]] = field(default_factory=dict)
    #: Observed witness: acquire eid -> eid of the release it read (by
    #: flag value), or None when the value matched no known release.
    reads_from: Dict[int, Optional[int]] = field(default_factory=dict)
    #: How many acquires the program has (each completed one is in
    #: ``reads_from``).
    acquires: int = 0
    #: Simulated completion time of the run.
    end: float = 0.0

    def named(self, key: ImageKey) -> Dict[str, int]:
        """*key* as a location -> value dict."""
        return dict(zip(self.locations, key))

    @property
    def images(self) -> List[Tuple[float, Dict[str, int]]]:
        return [(time, self.named(key)) for time, key in self.keys]

    @property
    def final_image(self) -> Dict[str, int]:
        return self.named(self.final_key)

    @property
    def dfence_images(self) -> Dict[int, Tuple[float, Dict[str, int]]]:
        return {
            eid: (time, self.named(key))
            for eid, (time, key) in self.dfence_keys.items()
        }

    def image_dicts(self) -> List[Dict[str, int]]:
        return [self.named(key) for _, key in self.keys]


@functools.lru_cache(maxsize=16)
def litmus_config(
    model: ModelName, num_sms: int, threads_per_block: int
) -> SystemConfig:
    """The shrunk litmus system of one geometry, built once per
    (model, geometry): configs are frozen, so every run shares it."""
    return small_system(
        model, num_sms=num_sms, threads_per_block=threads_per_block
    )


def base_config(
    program: LitmusProgram, model: ModelName = ModelName.SBRP
) -> SystemConfig:
    """The default shrunk system for a litmus program: one SM per block
    (at least two) and enough warp slots for the widest block."""
    return litmus_config(model, *_geometry(program))


def _geometry(program: LitmusProgram) -> Tuple[int, int]:
    blocks = sorted({t.block for t in program.threads})
    widest = max(
        sum(1 for t in program.threads if t.block == b) for b in blocks
    )
    return max(2, len(blocks)), 32 * max(2, widest)


class ProgramSetup:
    """What every run of one litmus program shares, derived once:
    :meth:`~repro.formal.events.LitmusProgram.validate`, then from one
    walk of the event list the location layout, the release-value map,
    the acquire count and the machine geometry, and on first use the
    warp slots of each thread order.

    ``LitmusProgram`` is a mutable builder, so a setup is made for one
    batch of runs (one :func:`~repro.check.enumerator.observe` call)
    and never looked up by program identity."""

    def __init__(self, program: LitmusProgram) -> None:
        program.validate()
        self.program = program
        events = program.events()
        #: Locations in layout order: the i-th sits ``LOC_STRIDE * i``
        #: into its region (PM for ``p*`` names, volatile otherwise).
        self.locations = sorted({e.loc for e in events if e.loc is not None})
        self.pm_locations = [loc for loc in self.locations if loc.startswith("p")]
        # Flag value -> release eid, for reconstructing the witness from
        # the value each acquire spun up on.  Generated programs keep
        # values unique per location, so the mapping is unambiguous
        # there.
        self.release_of_value: Dict[Tuple[str, int], int] = {}
        #: How many acquires the program has: a run's witness is
        #: complete when each of them read a known release.
        self.acquires = 0
        for e in events:
            if e.kind is EventKind.PREL:
                self.release_of_value.setdefault((e.loc, e.value), e.eid)
            elif e.kind is EventKind.PACQ:
                self.acquires += 1
        #: :func:`base_config`'s (SM count, block size) for the program.
        self.geometry = _geometry(program)
        self._slots: Dict[Any, Tuple[Any, List[List[Any]]]] = {}

    def slots(
        self, thread_order: Optional[Sequence[int]]
    ) -> Tuple[Tuple[Tuple[int, ...], ...], List[List[Any]]]:
        """:func:`warp_slots` of *thread_order* and each block's threads
        in that order, derived once per order."""
        key = tuple(thread_order) if thread_order else None
        if key not in self._slots:
            slots = warp_slots(self.program, thread_order)
            threads = self.program.threads
            self._slots[key] = (
                slots,
                [[threads[tid] for tid in block] for block in slots],
            )
        return self._slots[key]


@functools.lru_cache(maxsize=8)
def _leader(warp_size: int) -> Tuple[bool, ...]:
    """The lane mask of a warp's leader lane (lane 0).  A tuple, so every
    op built with it shares it as is (see :func:`repro.gpu.ops._as_mask`)."""
    return (True,) + (False,) * (warp_size - 1)


def warp_slots(
    program: LitmusProgram, thread_order: Optional[Sequence[int]] = None
) -> Tuple[Tuple[int, ...], ...]:
    """Thread ids of each block (blocks in sorted order) in warp-slot
    order.  *thread_order* lists thread ids in issue-slot order; threads
    it omits follow it, by id."""
    threads = program.threads
    order = range(len(threads))
    if thread_order:
        first = [tid for tid in dict.fromkeys(thread_order) if tid in order]
        order = first + [tid for tid in order if tid not in first]
    blocks: Dict[int, List[int]] = {}
    for tid in order:
        blocks.setdefault(threads[tid].block, []).append(tid)
    return tuple(tuple(blocks[b]) for b in sorted(blocks))


def simulate_program(
    program: LitmusProgram,
    model: ModelName = ModelName.SBRP,
    config: Optional[SystemConfig] = None,
    crash_points: int = 64,
    faults: Optional[Any] = None,
    model_factory: Optional[Callable[..., Any]] = None,
    thread_order: Optional[Sequence[int]] = None,
    setup: Optional[ProgramSetup] = None,
) -> SimulationObservation:
    """Run *program* on the timing simulator and observe its execution.

    The durable image is taken at t = 0, at every persist-log boundary,
    at every dFence completion and at the end of the run.  Unless the
    fault plan tears lines, that is exact: an image changes only when a
    persist is accepted.  Under a tearing plan a line still in the WPQ
    window may tear, so *crash_points* evenly spaced instants over the
    run are imaged as well; it must be at least 1 either way.

    *config* overrides the default shrunk system (the conformance
    enumerator sweeps drain policies and WPQ congestion this way).
    *model_factory* builds the persistency model instead of the config's
    registered one — the mutation-teeth hook.  *thread_order* permutes
    the warp assignment of threads within each block (a bounded
    scheduling perturbation); it lists thread ids in issue-slot order.
    *setup* is *program*'s :class:`ProgramSetup` when several runs
    share one; by default this run derives its own.
    """
    if setup is None:
        setup = ProgramSetup(program)
    elif setup.program is not program:
        raise ConfigError("setup was derived from another program")
    if crash_points < 1:
        raise ConfigError(f"crash_points must be >= 1, got {crash_points}")
    if config is None:
        config = litmus_config(model, *setup.geometry)
    system = GPUSystem(config, faults=faults, model_factory=model_factory)

    locations = setup.locations
    pm_region = system.pm_create("litmus.pm", LOC_STRIDE * max(1, len(locations)))
    vol_region = system.malloc(LOC_STRIDE * max(1, len(locations)))
    addr: Dict[str, int] = {}
    for index, loc in enumerate(locations):
        region = pm_region if loc.startswith("p") else vol_region
        addr[loc] = region.base + LOC_STRIDE * index
    release_of_value = setup.release_of_value

    observation = SimulationObservation(
        locations=setup.pm_locations, acquires=setup.acquires
    )
    dfence_at: Dict[int, float] = {}
    slots = setup.slots(thread_order)[1]
    # Lane 0 of each thread's warp executes it; one mask serves all.
    leader = _leader(config.gpu.warp_size)

    def kernel(w):
        mine = slots[w.block_id % len(slots)]
        if w.warp_in_block >= len(mine):
            return
        thread = mine[w.warp_in_block]
        for event in thread.events:
            if event.kind in (EventKind.W, EventKind.WV):
                yield w.st(addr[event.loc], event.value, mask=leader)
            elif event.kind is EventKind.R:
                yield w.ld(addr[event.loc], mask=leader)
            elif event.kind is EventKind.OFENCE:
                yield w.ofence()
            elif event.kind is EventKind.DFENCE:
                yield w.dfence()
                dfence_at[event.eid] = system.gpu.engine.now
            elif event.kind is EventKind.PREL:
                yield w.prel(addr[event.loc], event.value, event.scope)
            elif event.kind is EventKind.PACQ:
                got = yield w.pacq(addr[event.loc], event.scope, spin=True)
                observation.reads_from[event.eid] = release_of_value.get(
                    (event.loc, got)
                )

    system.launch(kernel, grid_blocks=len(slots))
    system.sync()

    end = system.gpu.engine.now
    observation.end = end

    # Unless the plan tears, an image changes only when a persist is
    # accepted, so t = 0 and the acceptance boundaries reveal every
    # image at its earliest instant.  The evenly spaced points matter
    # only where a line can tear, and it stops tearing once it leaves
    # the WPQ window.
    subsystem = system.gpu.subsystem
    times = {0.0, *subsystem.persist_log.boundary_times(end=end)}
    if subsystem.tearing_faults is not None:
        times.update(end * i / crash_points for i in range(crash_points + 1))
    wanted = set(dfence_at.values())
    wanted.add(end)
    instants = sorted(times | wanted)
    # An image is kept in key form: its PM locations' values, in
    # location order.
    pm_addrs = [addr[loc] for loc in setup.pm_locations]
    zeros = [0] * len(pm_addrs)
    seen: Set[ImageKey] = set()
    keys = observation.keys
    key_at: Dict[float, ImageKey] = {}
    key: Optional[ImageKey] = None
    for t, (image, landed) in zip(instants, subsystem.crash_images(instants)):
        if key is None or landed is None or landed:
            key = tuple(map(image.get, pm_addrs, zeros))
        if t in times and key not in seen:
            seen.add(key)
            keys.append((t, key))
        if t in wanted:
            key_at[t] = key

    observation.final_key = key_at[end]
    # A dFence's durability obligation binds at its completion instant:
    # everything the issuing thread persisted before it must already be
    # durable *then* (later images only grow).
    observation.dfence_keys = {
        eid: (t, key_at[t]) for eid, t in dfence_at.items()
    }
    return observation

