"""Outcome enumeration: run one program under bounded perturbations.

Each :class:`Variant` is one bounded scheduling/configuration
perturbation of the simulator — a drain-policy choice, a drain-window
setting, WPQ congestion, a reversed warp-issue order, or the Figure 7
scope demotion.  The ``congested`` variants are the load-bearing ones:
with ``wpq_entries=1`` and NVM bandwidth scaled to 2% a single
partition's write-pending queue backs up for thousands of cycles, so
any persist the model *fails* to order is accepted visibly out of
order (acceptance into the WPQ is the durability point, and acceptance
order across partitions is not global).

Crash-at-every-persist is implicit: :func:`simulate_program` samples
the durable image at every persist-log boundary, so every acceptance
instant contributes one observed crash image.  Fault-free, no other
instant can reveal a new one.

Variants that build the same machine share one run: the SBRP-only knobs
(drain policy, window, scope demotion) are dropped under GPM and Epoch,
and reversal leaves a block of one thread as it was, so :func:`observe`
simulates each distinct (model-filtered knobs, warp slots) pair once
per call.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass, replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.common.config import DrainPolicy, ModelName, SystemConfig
from repro.common.errors import ConfigError
from repro.formal.bridge import (
    ProgramSetup,
    SimulationObservation,
    litmus_config,
    simulate_program,
)
from repro.formal.events import LitmusProgram


@dataclass(frozen=True)
class Variant:
    """One perturbation of the base litmus configuration."""

    name: str
    drain_policy: Optional[str] = None
    window: Optional[int] = None
    wpq_entries: Optional[int] = None
    nvm_bw_scale: Optional[float] = None
    demote_block_scope: bool = False
    reverse_threads: bool = False

    def knobs(self, model: ModelName) -> Tuple[Any, ...]:
        """The overrides that reach a *model* machine: the SBRP-only
        knobs (drain policy, window, scope demotion) are dropped under
        GPM and Epoch, which never read them."""
        sbrp = model is ModelName.SBRP
        return (
            self.drain_policy if sbrp else None,
            self.window if sbrp else None,
            self.demote_block_scope and sbrp,
            self.wpq_entries,
            self.nvm_bw_scale,
        )

    def configure(self, config: SystemConfig) -> SystemConfig:
        """*config*, a program's :func:`base_config`, perturbed.  The
        result is memoised on the model, the geometry and
        :meth:`knobs`; any other *config* is a :class:`ConfigError`."""
        gpu = config.gpu
        geometry = (config.model, gpu.num_sms, gpu.threads_per_block)
        base = litmus_config(*geometry)
        if config is not base and config != base:
            raise ConfigError("Variant.configure perturbs a base_config")
        return _configured(*geometry, self.knobs(config.model))

    def thread_order(self, program: LitmusProgram) -> Optional[Sequence[int]]:
        if not self.reverse_threads:
            return None
        return list(reversed(range(len(program.threads))))

    def to_json(self) -> Dict[str, Any]:
        return asdict(self)

    @staticmethod
    def from_json(data: Mapping[str, Any]) -> "Variant":
        return Variant(**dict(data))


@functools.lru_cache(maxsize=64)
def _configured(
    model: ModelName,
    num_sms: int,
    threads_per_block: int,
    knobs: Tuple[Any, ...],
) -> SystemConfig:
    """The litmus config of one geometry with *knobs* applied, built
    once: configs are frozen, so every run with these primitives
    shares it.  The base variant's is the base config itself."""
    config = litmus_config(model, num_sms, threads_per_block)
    drain, window, demote, wpq, bw_scale = knobs
    sbrp: Dict[str, Any] = {}
    if drain is not None:
        sbrp["drain_policy"] = DrainPolicy(drain)
    if window is not None:
        sbrp["window"] = window
    if demote:
        sbrp["demote_block_scope"] = True
    memory: Dict[str, Any] = {}
    if wpq is not None:
        memory["wpq_entries"] = wpq
    if bw_scale is not None:
        memory["nvm_bw_scale"] = bw_scale
    changes: Dict[str, Any] = {}
    if sbrp:
        changes["sbrp"] = replace(config.sbrp, **sbrp)
    if memory:
        changes["memory"] = replace(config.memory, **memory)
    return replace(config, **changes) if changes else config


#: The full sweep.  Congestion knobs follow the recipe above; window=1
#: throttles the drain to one outstanding send (maximum buffering).
VARIANTS: List[Variant] = [
    Variant("base"),
    Variant("eager", drain_policy="eager"),
    Variant("lazy", drain_policy="lazy"),
    Variant("window1", window=1),
    Variant("congested", wpq_entries=1, nvm_bw_scale=0.02),
    Variant("congested_eager", drain_policy="eager", wpq_entries=1, nvm_bw_scale=0.02),
    Variant("reversed", reverse_threads=True),
    Variant(
        "congested_reversed", wpq_entries=1, nvm_bw_scale=0.02, reverse_threads=True
    ),
    Variant("demoted", demote_block_scope=True),
]

#: The quick subset used by ``--smoke`` and by shrinking re-checks.
#: ``window1`` is load-bearing: with at most one outstanding send the
#: persist buffer actually *buffers*, so FIFO-order mutations surface.
SMOKE_VARIANTS: List[Variant] = [
    VARIANTS[0],  # base
    VARIANTS[3],  # window1
    VARIANTS[4],  # congested
    VARIANTS[6],  # reversed
]

_BY_NAME: Dict[str, Variant] = {v.name: v for v in VARIANTS}


def variants_by_name(names: Sequence[str]) -> List[Variant]:
    missing = [n for n in names if n not in _BY_NAME]
    if missing:
        raise ConfigError(f"unknown variants {missing}; have {sorted(_BY_NAME)}")
    return [_BY_NAME[n] for n in names]


def observe(
    program: LitmusProgram,
    model: ModelName,
    variants: Sequence[Variant],
    crash_points: int = 48,
    model_factory: Any = None,
    setup: Optional[ProgramSetup] = None,
) -> List[Union[SimulationObservation, Exception]]:
    """Simulator runs of *program*, one result per variant: the
    observation, or the exception that ended the run.  Variants that
    build the same machine share one run (the same object): a run is
    keyed on the variant's :meth:`~Variant.knobs` under *model* and the
    warp slots, and only a new key builds its config.  *crash_points*
    is passed to :func:`simulate_program`, which images those evenly
    spaced instants only under a fault injector; a value below 1 raises
    :class:`ConfigError`.  The program's :class:`ProgramSetup` (*setup*,
    or derived here when not given) is shared by its runs."""
    if setup is None:
        setup = ProgramSetup(program)
    base = litmus_config(model, *setup.geometry)
    runs: Dict[Tuple[Any, ...], Any] = {}
    results = []
    for variant in variants:
        order = variant.thread_order(program)
        run = (variant.knobs(model), setup.slots(order)[0])
        if run not in runs:
            try:
                runs[run] = simulate_program(
                    program,
                    model=model,
                    config=variant.configure(base),
                    crash_points=crash_points,
                    model_factory=model_factory,
                    thread_order=order,
                    setup=setup,
                )
            except ConfigError:
                raise  # a bad argument, not a wedge
            except Exception as err:  # noqa: BLE001 - any wedge is a finding
                runs[run] = err
        results.append(runs[run])
    return results
