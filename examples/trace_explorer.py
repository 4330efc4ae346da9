"""Trace explorer: profile a Figure 6-style reduction run under SBRP.

Runs the reduction workload (quick preset) on the PM-far Table 1 machine
with tracing enabled, then:

* writes ``trace.json`` — open it at https://ui.perfetto.dev (or
  chrome://tracing) to see per-warp residency tracks, persist
  lifecycles, and PB-occupancy / ACTR / WPQ-depth counter tracks;
* prints the ASCII profile of that file — per-warp stall attribution,
  persist-phase latencies, and device utilisation.

Run:  python examples/trace_explorer.py [output-dir]
"""

import sys
from pathlib import Path

from repro.bench.runner import run_scenario, scenario_config, scenario_stem
from repro.bench.workloads import workload
from repro.common.config import ModelName, PMPlacement
from repro.trace import load_trace, render_report


def main() -> None:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("traces")
    config = scenario_config(ModelName.SBRP, PMPlacement.FAR)
    params = workload("reduction", "quick")
    result = run_scenario(
        "reduction",
        config,
        params,
        trace_dir=str(out),
    )
    path = out / f"{scenario_stem('reduction', config, params)}.trace.json"
    print(f"reduction @ {config.label}: {result.cycles:.0f} cycles")
    print(f"wrote {path} (load at https://ui.perfetto.dev)")
    print()
    print(render_report(load_trace(path)))
    print()
    print(f"re-render any time with: python -m repro.trace.report {path}")


if __name__ == "__main__":
    main()
