"""One driver per figure of the paper's evaluation (Section 7).

Every driver returns a :class:`~repro.bench.report.FigureTable` whose
rows/series mirror the paper's plot, so ``print(table.to_ascii())``
reproduces the figure as a table; :func:`ablation_drain_policy` adds
one sweep beyond the paper.  All speedups are "higher is better"
and use the paper's baselines (epoch-far for Figure 6; epoch-near for
the sensitivity studies; epoch for recovery).

Drivers declare their scenario sets as :class:`~repro.exec.ScenarioJob`
lists and submit them through an :class:`~repro.exec.Executor` in one
batch — so a shared executor deduplicates the baselines that recur
across figures and ``workers > 1`` fans the batch out across
processes.  Passing no executor gives a plain serial run (the
byte-identical reference path).
"""

from __future__ import annotations

from statistics import geometric_mean
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.report import FigureTable
from repro.bench.runner import ScenarioResult, scenario_config
from repro.bench.workloads import APP_ORDER, SCOPED_APPS, workload
from repro.common.config import DrainPolicy, ModelName, PMPlacement
from repro.exec.executor import Executor
from repro.exec.jobs import MODE_RECOVERY, ScenarioJob

_FAR = PMPlacement.FAR
_NEAR = PMPlacement.NEAR

#: Figure 6 series whose runs Figure 11 crashes.
_RECOVERED = ("Epoch-near", "SBRP-near")


def _apps(apps: Optional[List[str]]) -> List[str]:
    return apps if apps is not None else list(APP_ORDER)


def _tag(label: str) -> str:
    """Sweep label -> filesystem-friendly trace tag."""
    return label.replace("%", "pct").replace(" ", "_")


def _executor(executor: Optional[Executor]) -> Executor:
    """The given executor, or a fresh serial one."""
    return executor if executor is not None else Executor(workers=1)


def _submit(
    executor: Optional[Executor],
    jobs: Sequence[Tuple[object, ScenarioJob]],
) -> Dict[object, ScenarioResult]:
    """Submit ``(slot, job)`` pairs in order; map slots to results."""
    results = _executor(executor).submit([job for _, job in jobs])
    return {slot: result for (slot, _), result in zip(jobs, results)}


def _with_mean(table: FigureTable, keys: List[str]) -> None:
    means = {
        series: geometric_mean(
            [row[series] for row in table.rows if row[table.row_key] in keys]
        )
        for series in table.series
    }
    table.add_row("gmean", means)


def figure6(
    preset: str = "quick",
    apps: Optional[List[str]] = None,
    trace_dir: Optional[str] = None,
    executor: Optional[Executor] = None,
) -> FigureTable:
    """Figure 6: speedup over epoch-far of GPM / SBRP-far / epoch-near /
    SBRP-near for every application.

    The PM-near Epoch and SBRP runs also time their worst-case recovery,
    which is what :func:`figure11` reports.
    """
    names = _apps(apps)
    series = ["GPM", "Epoch-far", "SBRP-far", "Epoch-near", "SBRP-near"]
    table = FigureTable("Figure 6: speedup over epoch-far", "app", series)
    scenarios = {
        "GPM": scenario_config(ModelName.GPM, _FAR),
        "Epoch-far": scenario_config(ModelName.EPOCH, _FAR),
        "SBRP-far": scenario_config(ModelName.SBRP, _FAR),
        "Epoch-near": scenario_config(ModelName.EPOCH, _NEAR),
        "SBRP-near": scenario_config(ModelName.SBRP, _NEAR),
    }
    jobs = [
        (
            (app, label),
            ScenarioJob(
                app=app,
                config=cfg,
                app_params=workload(app, preset),
                trace_dir=trace_dir,
                recover=label in _RECOVERED,
            ),
        )
        for app in names
        for label, cfg in scenarios.items()
    ]
    results = _submit(executor, jobs)
    for app in names:
        cycles = {label: results[(app, label)].cycles for label in scenarios}
        base = cycles["Epoch-far"]
        table.add_row(app, {label: base / c for label, c in cycles.items()})
    _with_mean(table, names)
    return table


def figure7(
    preset: str = "quick",
    apps: Optional[List[str]] = None,
    trace_dir: Optional[str] = None,
    executor: Optional[Executor] = None,
) -> FigureTable:
    """Figure 7: contribution of buffers vs scopes to SBRP's speedup.

    Demoting every block-scope pAcq/pRel to device scope leaves only the
    buffering benefit; the remainder of the full-SBRP speedup is
    attributed to scopes (the paper's methodology).  Each placement
    prints the two raw speedups over Epoch, of demoted and of full
    SBRP, beside the signed buffers fraction ``(epoch/demoted - 1) /
    (epoch/full - 1)``: a negative fraction means buffering alone is
    slower than Epoch, and the scopes' share is one minus it.
    """
    names = apps if apps is not None else list(SCOPED_APPS)
    series = [
        f"{tag} {column}"
        for tag in ("far", "near")
        for column in ("Epoch/demoted", "Epoch/SBRP", "buffers")
    ]
    table = FigureTable(
        "Figure 7: speedup breakdown (signed buffers fraction)", "app", series
    )
    jobs = []
    for app in names:
        params = workload(app, preset)
        for placement, tag in ((_FAR, "far"), (_NEAR, "near")):
            variants = {
                "epoch": (scenario_config(ModelName.EPOCH, placement), None),
                "full": (scenario_config(ModelName.SBRP, placement), None),
                "demoted": (
                    scenario_config(
                        ModelName.SBRP, placement, demote_block_scope=True
                    ),
                    "demoted",
                ),
            }
            for variant, (cfg, trace_tag) in variants.items():
                jobs.append(
                    (
                        (app, tag, variant),
                        ScenarioJob(
                            app=app,
                            config=cfg,
                            app_params=params,
                            trace_dir=trace_dir,
                            trace_tag=trace_tag,
                        ),
                    )
                )
    results = _submit(executor, jobs)
    for app in names:
        values: Dict[str, float] = {}
        for tag in ("far", "near"):
            epoch = results[(app, tag, "epoch")].cycles
            demoted = epoch / results[(app, tag, "demoted")].cycles
            full = epoch / results[(app, tag, "full")].cycles
            values[f"{tag} Epoch/demoted"] = demoted
            values[f"{tag} Epoch/SBRP"] = full
            values[f"{tag} buffers"] = (demoted - 1.0) / (full - 1.0)
        table.add_row(app, values)
    return table


def figure8(
    preset: str = "quick",
    apps: Optional[List[str]] = None,
    trace_dir: Optional[str] = None,
    executor: Optional[Executor] = None,
) -> FigureTable:
    """Figure 8: L1 read misses for NVM data, normalized to epoch-far
    (lower is better)."""
    names = _apps(apps)
    series = ["Epoch-far", "SBRP-far", "Epoch-near", "SBRP-near"]
    table = FigureTable(
        "Figure 8: normalized L1 read misses (NVM data)", "app", series
    )
    scenarios = {
        "Epoch-far": scenario_config(ModelName.EPOCH, _FAR),
        "SBRP-far": scenario_config(ModelName.SBRP, _FAR),
        "Epoch-near": scenario_config(ModelName.EPOCH, _NEAR),
        "SBRP-near": scenario_config(ModelName.SBRP, _NEAR),
    }
    jobs = [
        (
            (app, label),
            ScenarioJob(
                app=app,
                config=cfg,
                app_params=workload(app, preset),
                trace_dir=trace_dir,
            ),
        )
        for app in names
        for label, cfg in scenarios.items()
    ]
    results = _submit(executor, jobs)
    for app in names:
        misses = {
            label: results[(app, label)].stat("l1.read_miss_pm")
            for label in scenarios
        }
        base = max(1.0, misses["Epoch-far"])
        table.add_row(app, {label: m / base for label, m in misses.items()})
    return table


def figure9(
    preset: str = "quick",
    apps: Optional[List[str]] = None,
    trace_dir: Optional[str] = None,
    executor: Optional[Executor] = None,
) -> FigureTable:
    """Figure 9: SBRP-far speedup over epoch-far when the PM-far host is
    eADR-equipped (persists durable at the host LLC).

    eADR would only move a persist's acceptance from WPQ entry to host
    arrival, and those differ only while a WPQ is full.  In every
    measured Table 1 PM-far cell such waits never reach the end-to-end
    time (EXPERIMENTS.md), so the eADR cells are Figure 6's PM-far
    cells: the driver submits
    exactly :func:`figure6`'s Epoch-far and SBRP-far jobs, and a shared
    executor answers them from its memo.
    """
    names = _apps(apps)
    table = FigureTable("Figure 9: SBRP-far speedup with eADR", "app", ["SBRP-far"])
    scenarios = {
        "epoch": scenario_config(ModelName.EPOCH, _FAR),
        "sbrp": scenario_config(ModelName.SBRP, _FAR),
    }
    jobs = [
        (
            (app, variant),
            ScenarioJob(
                app=app,
                config=cfg,
                app_params=workload(app, preset),
                trace_dir=trace_dir,
            ),
        )
        for app in names
        for variant, cfg in scenarios.items()
    ]
    results = _submit(executor, jobs)
    for app in names:
        epoch = results[(app, "epoch")].cycles
        sbrp = results[(app, "sbrp")].cycles
        table.add_row(app, {"SBRP-far": epoch / sbrp})
    _with_mean(table, names)
    return table


def _sensitivity(
    name: str,
    knob: str,
    values: List,
    labels: List[str],
    preset: str,
    apps: Optional[List[str]],
    trace_dir: Optional[str] = None,
    executor: Optional[Executor] = None,
) -> FigureTable:
    """Common shape of Figures 10a-c and the drain-policy ablation:
    SBRP-near speedup over epoch-near as one SBRP knob sweeps."""
    names = _apps(apps)
    table = FigureTable(name, "app", labels)
    epoch_cfg = scenario_config(ModelName.EPOCH, _NEAR)
    jobs = []
    for app in names:
        params = workload(app, preset)
        jobs.append(
            (
                (app, "epoch"),
                ScenarioJob(
                    app=app,
                    config=epoch_cfg,
                    app_params=params,
                    trace_dir=trace_dir,
                ),
            )
        )
        for value, label in zip(values, labels):
            cfg = scenario_config(ModelName.SBRP, _NEAR, **{knob: value})
            jobs.append(
                (
                    (app, label),
                    ScenarioJob(
                        app=app,
                        config=cfg,
                        app_params=params,
                        trace_dir=trace_dir,
                        trace_tag=f"{knob}_{_tag(label)}",
                    ),
                )
            )
    results = _submit(executor, jobs)
    for app in names:
        epoch = results[(app, "epoch")].cycles
        table.add_row(
            app,
            {label: epoch / results[(app, label)].cycles for label in labels},
        )
    _with_mean(table, names)
    return table


def figure10a(
    preset: str = "quick", apps=None, trace_dir=None, executor=None
) -> FigureTable:
    """Figure 10a: SBRP-near speedup vs persist-buffer size (fraction of
    L1 lines covered)."""
    return _sensitivity(
        "Figure 10a: PB size sweep (SBRP-near speedup over epoch-near)",
        "pb_coverage",
        [0.125, 0.25, 0.5, 1.0],
        ["12.5%", "25%", "50%", "100%"],
        preset,
        apps,
        trace_dir,
        executor,
    )


def figure10b(
    preset: str = "quick", apps=None, trace_dir=None, executor=None
) -> FigureTable:
    """Figure 10b: SBRP-near speedup vs NVM bandwidth scaling."""
    names = _apps(apps)
    labels = ["50%", "100%", "200%"]
    table = FigureTable(
        "Figure 10b: NVM bandwidth sweep (SBRP-near speedup over epoch-near)",
        "app",
        labels,
    )
    jobs = []
    for app in names:
        params = workload(app, preset)
        for scale, label in zip([0.5, 1.0, 2.0], labels):
            tag = f"bw_{_tag(label)}"
            for variant, model in (("epoch", ModelName.EPOCH), ("sbrp", ModelName.SBRP)):
                jobs.append(
                    (
                        (app, label, variant),
                        ScenarioJob(
                            app=app,
                            config=scenario_config(
                                model, _NEAR, nvm_bw_scale=scale
                            ),
                            app_params=params,
                            trace_dir=trace_dir,
                            trace_tag=tag,
                        ),
                    )
                )
    results = _submit(executor, jobs)
    for app in names:
        row = {}
        for label in labels:
            epoch = results[(app, label, "epoch")].cycles
            sbrp = results[(app, label, "sbrp")].cycles
            row[label] = epoch / sbrp
        table.add_row(app, row)
    _with_mean(table, names)
    return table


def figure10c(
    preset: str = "quick", apps=None, trace_dir=None, executor=None
) -> FigureTable:
    """Figure 10c: SBRP-near speedup vs drain window size."""
    return _sensitivity(
        "Figure 10c: window-size sweep (SBRP-near speedup over epoch-near)",
        "window",
        [2, 4, 6, 8, 10],
        ["2", "4", "6", "8", "10"],
        preset,
        apps,
        trace_dir,
        executor,
    )


def ablation_drain_policy(
    preset: str = "quick", apps=None, trace_dir=None, executor=None
) -> FigureTable:
    """Beyond the paper: SBRP-near speedup under each drain policy
    (Section 6.2 compares them only qualitatively)."""
    return _sensitivity(
        "Ablation: drain policy (SBRP-near speedup over epoch-near)",
        "drain_policy",
        list(DrainPolicy),
        [policy.value for policy in DrainPolicy],
        preset,
        apps,
        trace_dir,
        executor,
    )


def figure11(
    preset: str = "quick",
    apps: Optional[List[str]] = None,
    trace_dir: Optional[str] = None,
    executor: Optional[Executor] = None,
) -> FigureTable:
    """Figure 11: recovery-kernel runtime under epoch-near and SBRP-near
    after a worst-case crash, normalized to epoch-near (lower is
    better).

    Each cell is the recovery measured by :func:`figure6`'s run of the
    same PM-near scenario: the executor answers a recovery job from that
    run when it has it and runs it otherwise.  *trace_dir* goes to those
    runs, as in :func:`figure6`, so a traced sweep still shares them.
    """
    names = _apps(apps)
    series = ["Epoch", "SBRP"]
    table = FigureTable(
        "Figure 11: normalized recovery runtime (PM-near)", "app", series
    )
    jobs = [
        (
            (app, label),
            ScenarioJob(
                app=app,
                config=scenario_config(model, _NEAR),
                app_params=workload(app, preset),
                trace_dir=trace_dir,
                mode=MODE_RECOVERY,
            ),
        )
        for app in names
        for label, model in (("Epoch", ModelName.EPOCH), ("SBRP", ModelName.SBRP))
    ]
    results = _submit(executor, jobs)
    for app in names:
        cycles = {label: results[(app, label)].cycles for label in series}
        base = max(1.0, cycles["Epoch"])
        table.add_row(app, {label: c / base for label, c in cycles.items()})
    _with_mean(table, names)
    return table
