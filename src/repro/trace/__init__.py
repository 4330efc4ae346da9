"""Structured tracing & profiling for the simulator.

The subsystem has three layers:

* :mod:`repro.trace.tracer` — the low-overhead :class:`Tracer` every
  component of a traced system emits into (ring-buffer backed; an
  untraced system has none);
* :mod:`repro.trace.events` — typed records: warp stall categories
  and persist-lifecycle traces (phase latencies go into
  :class:`~repro.metrics.registry.MetricHistogram`);
* exporters — :mod:`repro.trace.perfetto` writes the one artifact, a
  deterministic Chrome/Perfetto ``trace.json``, and
  :mod:`repro.trace.report` renders that file (or a live tracer,
  through the same reduction) as an ASCII profile (also a
  ``__main__``).

Enable tracing per system::

    from repro import GPUSystem, ModelName, small_system

    system = GPUSystem(small_system(ModelName.SBRP), trace=True)
    ...  # run kernels
    system.write_trace("trace.json")     # load in ui.perfetto.dev
    print(system.trace_report())         # stall attribution table
"""

from repro.trace.events import (
    FENCE_CATEGORIES,
    PersistTrace,
    STALL_CATEGORIES,
)
from repro.trace.perfetto import chrome_trace, dumps, write_chrome_trace
from repro.trace.tracer import Tracer

_REPORT_EXPORTS = ("load_trace", "profile_tracer", "reconcile", "render_report")


def __getattr__(name: str):
    # Lazy: importing repro.trace.report here would shadow its execution
    # as ``python -m repro.trace.report`` (double-import RuntimeWarning).
    if name in _REPORT_EXPORTS:
        from repro.trace import report

        return getattr(report, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "FENCE_CATEGORIES",
    "PersistTrace",
    "STALL_CATEGORIES",
    "Tracer",
    "chrome_trace",
    "dumps",
    "load_trace",
    "profile_tracer",
    "reconcile",
    "render_report",
    "write_chrome_trace",
]
