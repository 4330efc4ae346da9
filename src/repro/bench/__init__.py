"""Benchmark harness: regenerates every figure of the paper's Section 7.

* :mod:`~repro.bench.workloads` — workload presets (``quick`` for CI,
  ``paper`` for full-fidelity runs) per application.
* :mod:`~repro.bench.runner` — runs (app x model x system) scenarios and
  extracts the metrics each figure needs.
* :mod:`~repro.bench.figures` — one driver per figure/table: Figure 6
  (model speedups), Figure 7 (buffers-vs-scopes breakdown), Figure 8 (L1
  read misses), Figure 9 (eADR: Figure 6's PM-far runs), Figures 10a-c
  (PB size / NVM bandwidth / window sweeps), Figure 11 (recovery
  runtime), and the drain-policy ablation.
* :mod:`~repro.bench.report` — ASCII tables and CSV output.
"""

from repro.bench.figures import (
    ablation_drain_policy,
    figure6,
    figure7,
    figure8,
    figure9,
    figure10a,
    figure10b,
    figure10c,
    figure11,
)
from repro.bench.runner import (
    ScenarioResult,
    run_scenario,
    scenario_config,
    scenario_stem,
)
from repro.bench.workloads import WORKLOADS, workload

__all__ = [
    "WORKLOADS",
    "ScenarioResult",
    "ablation_drain_policy",
    "figure10a",
    "figure10b",
    "figure10c",
    "figure11",
    "figure6",
    "figure7",
    "figure8",
    "figure9",
    "run_scenario",
    "scenario_config",
    "scenario_stem",
    "workload",
]
