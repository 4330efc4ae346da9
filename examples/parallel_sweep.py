"""Parallel sweep: regenerate paper figures through the exec subsystem.

Runs Figure 6 and Figure 8 (quick preset) through one shared
:class:`repro.exec.Executor`: independent scenarios fan out across
worker processes, and every Figure 8 scenario config is one Figure 6
already ran, so the executor's in-process memo answers all of Figure 8
without simulating.

Run:  python examples/parallel_sweep.py [workers]

The full evaluation is one command away:

    python -m repro.exec.sweep --preset quick --workers 4
"""

import sys

from repro.bench import figure6, figure8
from repro.exec import Executor


def main() -> None:
    workers = int(sys.argv[1]) if len(sys.argv) > 1 else 4

    executor = Executor(
        workers=workers,
        progress=lambda e: print(
            f"  [{e.done}/{e.total}] {e.kind:5s} {e.label}", file=sys.stderr
        )
        if e.kind == "done"
        else None,
    )

    print(f"executing with {workers} worker(s)\n")
    executed = {}
    for fig in (figure6, figure8):
        print(fig(preset="quick", executor=executor).to_ascii())
        print()
        executed[fig.__name__] = executor.stats.executed

    print(executor.stats.summary())
    reran = executed["figure8"] - executed["figure6"]
    print(f"memo: Figure 8 simulated {reran} scenario(s) Figure 6 had not run")


if __name__ == "__main__":
    main()
