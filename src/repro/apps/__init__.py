"""The six PM-aware GPU applications of the paper's evaluation (Table 2).

============  ==============  =====================  =========
Application   Params (paper)  Scoped PMO             Recovery
============  ==============  =====================  =========
gpKVS         ~64K pairs      intra-thread           logging
Hashmap (HM)  ~50K entries    intra-thread           logging
SRAD          512x512 matrix  intra-thread           native
Reduction     ~4M ints        blk/dev inter-thread   native
Multiqueue    2K batches      intra + blk inter      logging
Scan          ~120K ints      blk inter-thread       native
============  ==============  =====================  =========

Every app implements the :class:`~repro.apps.base.App` protocol: build
its PM data structures on a :class:`~repro.system.GPUSystem`, run the
crash-free kernel(s), run a recovery kernel against a crash image, and
check its consistency invariants.  Workload sizes are configurable; the
defaults are scaled down from Table 2 for the Python substrate while
preserving each app's PMO structure.
"""

from repro.apps.base import App, AppParams, RunOutcome
from repro.apps.gpkvs import GpKVS
from repro.apps.hashmap import Hashmap
from repro.apps.multiqueue import Multiqueue
from repro.apps.reduction import Reduction
from repro.apps.scan import Scan
from repro.apps.srad import SRAD

#: Registry in the paper's presentation order (Figure 6 x-axis).
APPS = {
    "gpkvs": GpKVS,
    "hashmap": Hashmap,
    "srad": SRAD,
    "reduction": Reduction,
    "multiqueue": Multiqueue,
    "scan": Scan,
}

#: Apps resolved on first use: ``name -> (module, class)``.  The serve
#: app lives in :mod:`repro.serve`, which imports this package — eager
#: registration would cycle, so :func:`build_app` imports it lazily.
_LAZY_APPS = {
    "serve_kvs": ("repro.serve.app", "ServeKVS"),
}
#: Lazy apps already imported; kept apart so ``APPS`` stays Table 2.
_LAZY_RESOLVED = {}


def app_names():
    """Every registered app name (eager and lazy)."""
    return sorted(set(APPS) | set(_LAZY_APPS))


def build_app(name: str, **params):
    """Instantiate a registered application by name."""
    cls = APPS.get(name) or _LAZY_RESOLVED.get(name)
    if cls is None and name in _LAZY_APPS:
        import importlib

        module, attr = _LAZY_APPS[name]
        cls = _LAZY_RESOLVED[name] = getattr(importlib.import_module(module), attr)
    if cls is None:
        raise KeyError(f"unknown app {name!r}; have {app_names()}")
    return cls(**params)


__all__ = [
    "APPS",
    "App",
    "AppParams",
    "app_names",
    "GpKVS",
    "Hashmap",
    "Multiqueue",
    "Reduction",
    "RunOutcome",
    "SRAD",
    "Scan",
    "build_app",
]
