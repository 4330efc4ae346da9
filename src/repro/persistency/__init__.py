"""Persistency models: GPM's epoch, the enhanced epoch, and SBRP.

A :class:`~repro.persistency.base.PersistencyModel` is a pluggable
policy object the SM consults on every PM store, fence, scoped
acquire/release, and dirty-PM eviction.  The three models of the paper's
evaluation are provided:

* :class:`~repro.persistency.gpm.GPMModel` — GPM's implicit model: an
  unbuffered, scope-agnostic epoch barrier (system-scope fence) that
  flushes and invalidates *both* volatile and PM lines.
* :class:`~repro.persistency.epoch.EpochModel` — the enhanced epoch
  model whose barrier only affects writes to PM.
* :class:`~repro.persistency.sbrp.SBRPModel` — the paper's contribution:
  scoped, buffered release persistency with the Section 6 hardware.
"""

from repro.common.config import ModelName
from repro.persistency.base import PersistencyModel
from repro.persistency.epoch import EpochModel
from repro.persistency.gpm import GPMModel
from repro.persistency.sbrp import SBRPModel

_MODEL_CLASSES = {
    ModelName.GPM: GPMModel,
    ModelName.EPOCH: EpochModel,
    ModelName.SBRP: SBRPModel,
}


def build_model(config, stats):
    """Instantiate the persistency model named by *config.model*."""
    return _MODEL_CLASSES[config.model](config, stats)


__all__ = [
    "EpochModel",
    "GPMModel",
    "PersistencyModel",
    "SBRPModel",
    "build_model",
]
