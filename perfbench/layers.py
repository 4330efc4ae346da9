"""Per-layer host-time measurement: span wrappers and a profile split.

Two independent instruments, both installed from outside the simulator:

* :class:`SpanTracer` wraps public entry points of each layer (the
  ``SPANS`` table) for the duration of one pass.  Every call records its
  duration; a span's *self* time is its duration minus the time of the
  spans it caused, so nested layers are not double counted.  Wrappers
  only observe: the benchmark checks that every exact simulated count
  is identical with and without them.
* :func:`host_shares` splits a cProfile run's self time by package.
  Time spent in code outside the simulator (builtins, numpy, the
  standard library) is charged to the simulator layers that called it,
  in proportion to the calls; networkx counts under ``formal``, its only
  caller.

Layers are named by package (``gpu``, ``memory``, ``persistency`` ...),
never by file, so the names survive refactors inside a package.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Span name -> public entry points it covers ("module:Class.attr" or
#: "module:function").  ``apps.*`` spans additionally cover the same
#: method on every registered application class (see ``_app_targets``).
SPANS: Dict[str, Tuple[str, ...]] = {
    "gpu.launch": ("repro.system:GPUSystem.launch",),
    "gpu.sync": ("repro.system:GPUSystem.sync",),
    "system.construct": ("repro.system:GPUSystem.__init__",),
    "crash.image": ("repro.system:GPUSystem.crash",),
    "crash.recover": ("repro.crash:CrashHarness.recovery_cycles_at_worst_case",),
    "apps.setup": (),
    "apps.run": (),
    "apps.recover": (),
    "apps.check": (),
    "serve.plan": ("repro.serve.workload:plan_workload",),
    "serve.batch": ("repro.serve.app:ServeKVS.serve_batch",),
    "formal.allowed": (
        "repro.formal.crash_states:allowed_crash_images",
        "repro.formal.crash_states:allowed_final_images",
    ),
    "formal.simulate": ("repro.formal.bridge:simulate_program",),
    "check.oracle": ("repro.check.oracle:check_program",),
    "exec.submit": ("repro.exec.executor:Executor.submit",),
}

#: Span -> (self-time metric, call-count metric).  Two spans are named
#: ``*_self_s`` because their own code is all that remains once the
#: layers below them are subtracted.
SPAN_METRICS: Dict[str, Tuple[str, str]] = {
    name: (f"{name}_s", f"{name}_calls") for name in SPANS
}
SPAN_METRICS["gpu.launch"] = ("gpu.launch_s", "gpu.launches")
SPAN_METRICS["check.oracle"] = ("check.oracle_self_s", "check.oracle_calls")
SPAN_METRICS["exec.submit"] = ("exec.submit_self_s", "exec.submit_calls")

#: Host-share layers, in report order.  ``observers`` is the metrics,
#: trace and stats instrumentation; ``system`` is the rest of the
#: ``repro`` package (facade, config, bench drivers); ``other`` is time
#: no simulator frame called (the benchmark's own loop, interpreter).
LAYERS = (
    "gpu",
    "memory",
    "persistency",
    "formal",
    "check",
    "serve",
    "apps",
    "exec",
    "crash",
    "observers",
    "system",
    "other",
)


def _resolve(target: str) -> Tuple[Any, str, Any]:
    """``"mod:Cls.attr"`` -> (owner object, attribute name, original)."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def _app_targets(method: str) -> List[Tuple[Any, str, Any]]:
    """*method* on every registered application class that defines it."""
    import repro.apps
    from repro.serve.app import ServeKVS

    classes = [repro.apps.App, *repro.apps.APPS.values(), ServeKVS]
    targets = []
    for cls in dict.fromkeys(classes):
        if method in cls.__dict__:
            targets.append((cls, method, cls.__dict__[method]))
    return targets


class SpanTracer:
    """Self time and call counts per span, for one traced region."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {name: 0.0 for name in SPANS}
        self.calls: Dict[str, int] = {name: 0 for name in SPANS}
        #: Instructions retired inside traced launches, read through
        #: the public ``GPUSystem.stat`` API before and after each one.
        self.launch_instructions = 0.0
        self.launch_total_s = 0.0
        self._children: List[float] = []
        self._undo: List[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _call(self, name: str, fn: Callable[..., Any], args, kwargs) -> Any:
        self._children.append(0.0)
        before = args[0].stat("sm.instructions") if name == "gpu.launch" else 0.0
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            children = self._children.pop()
            self.self_s[name] += duration - children
            self.calls[name] += 1
            if self._children:
                self._children[-1] += duration
            if name == "gpu.launch":
                self.launch_total_s += duration
                self.launch_instructions += (
                    args[0].stat("sm.instructions") - before
                )

    def _wrapper(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def span(*args, **kwargs):
            return self._call(name, fn, args, kwargs)

        return span

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def _patch(self, owner: Any, attr: str, original: Any, name: str) -> None:
        wrapped = self._wrapper(name, original)
        setattr(owner, attr, wrapped)
        self._undo.append(lambda: setattr(owner, attr, original))
        if isinstance(owner, type):
            return
        # A module-level function is also bound by name in every module
        # that imported it; rebind those aliases too.
        for module in list(sys.modules.values()):
            module_name = getattr(module, "__name__", "") or ""
            if module is owner or not module_name.startswith(("repro", "workloads")):
                continue
            for alias, value in list(vars(module).items()):
                if value is original:
                    setattr(module, alias, wrapped)
                    self._undo.append(
                        lambda m=module, a=alias: setattr(m, a, original)
                    )

    def install(self) -> None:
        for name, targets in SPANS.items():
            resolved = [_resolve(t) for t in targets]
            if name.startswith("apps."):
                resolved += _app_targets(name.split(".", 1)[1])
            for owner, attr, original in resolved:
                self._patch(owner, attr, original, name)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def __enter__(self) -> "SpanTracer":
        self.install()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def metrics(self) -> Dict[str, Tuple[float, str]]:
        out: Dict[str, Tuple[float, str]] = {}
        for name, (self_metric, calls_metric) in SPAN_METRICS.items():
            out[self_metric] = (self.self_s[name], "s")
            out[calls_metric] = (float(self.calls[name]), "count")
        per_instr = (
            1e9 * self.launch_total_s / self.launch_instructions
            if self.launch_instructions
            else 0.0
        )
        out["gpu.host_ns_per_instruction"] = (per_instr, "ns")
        return out


# ----------------------------------------------------------------------
# profile split
# ----------------------------------------------------------------------
def _package_dir(name: str) -> Optional[str]:
    try:
        module = importlib.import_module(name)
    except ImportError:
        return None
    return os.path.dirname(os.path.realpath(module.__file__)) + os.sep


def _classifier() -> Callable[[str], Optional[str]]:
    """filename -> layer, or None for code outside the simulator."""
    repro_dir = _package_dir("repro")
    networkx_dir = _package_dir("networkx")
    cache: Dict[str, Optional[str]] = {}

    def layer_of(filename: str) -> Optional[str]:
        if filename in cache:
            return cache[filename]
        path = os.path.realpath(filename) if filename.startswith(os.sep) else filename
        layer: Optional[str] = None
        if networkx_dir and path.startswith(networkx_dir):
            layer = "formal"
        elif repro_dir and path.startswith(repro_dir):
            rel = path[len(repro_dir):].replace(os.sep, "/")
            package = rel.split("/", 1)[0]
            if package in ("metrics", "trace") or rel == "common/stats.py":
                layer = "observers"
            elif package in LAYERS:
                layer = package
            else:
                layer = "system"
        cache[filename] = layer
        return layer

    return layer_of


def host_shares(stats: Dict[Any, Any]) -> Dict[str, float]:
    """Fraction of profiled self time per layer (sums to 1).

    *stats* is ``pstats.Stats(profile).stats``: function -> (cc, nc,
    tottime, cumtime, callers), where each caller edge carries the
    callee's tottime spent on that edge's calls.
    """
    layer_of = _classifier()
    owners: Dict[Any, Dict[str, float]] = {}

    def owner_fractions(func: Any, active: frozenset) -> Dict[str, float]:
        """Which layers *func*'s time belongs to, as fractions."""
        layer = layer_of(func[0])
        if layer is not None:
            return {layer: 1.0}
        if func in owners:
            return owners[func]
        callers = stats[func][4] if func in stats else {}
        total = sum(edge[2] for edge in callers.values())
        if total <= 0 or func in active:
            return {"other": 1.0}
        fractions: Dict[str, float] = {}
        for caller, edge in callers.items():
            weight = edge[2] / total
            for owner, part in owner_fractions(caller, active | {func}).items():
                fractions[owner] = fractions.get(owner, 0.0) + weight * part
        owners[func] = fractions
        return fractions

    seconds = {layer: 0.0 for layer in LAYERS}
    for func, (_cc, _nc, tottime, _ct, _callers) in stats.items():
        for owner, part in owner_fractions(func, frozenset()).items():
            seconds[owner] += tottime * part
    total = sum(seconds.values()) or 1.0
    return {layer: seconds[layer] / total for layer in LAYERS}
