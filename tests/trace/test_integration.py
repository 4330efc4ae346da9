"""Tracing threaded through full runs: zero perturbation, lifecycle,
reconciliation, and traced runs as the reference for SBRP's drain memo."""

import pytest

from repro import GPUSystem, ModelName, small_system
from repro.apps import build_app
from repro.common.config import SBRPConfig, Scope
from repro.common.errors import SimulationError
from repro.persistency.sbrp.model import SBRPModel
from repro.trace import Tracer, reconcile
from repro.trace.perfetto import chrome_trace


def pm_kernel(w, data):
    for i in range(2):
        yield w.st(data.base + 4 * w.tid, w.tid + i)
    yield w.dfence()


def run(model, trace):
    system = GPUSystem(small_system(model), trace=trace)
    data = system.pm_create("d", 1 << 16)
    result = system.launch(pm_kernel, grid_blocks=2, args=(data,), drain=True)
    return system, result


def test_tracing_disabled_by_default():
    system = GPUSystem(small_system(ModelName.SBRP))
    assert system.tracer is None
    with pytest.raises(SimulationError):
        system.trace_report()


def test_traced_run_is_cycle_identical_to_untraced(model):
    _, traced = run(model, True)
    untraced_system, untraced = run(model, False)
    assert traced.cycles == untraced.cycles
    assert untraced_system.tracer is None


def test_tracer_adds_no_stats_counters(model):
    traced_system, _ = run(model, True)
    untraced_system, _ = run(model, False)
    assert traced_system.stats.snapshot() == untraced_system.stats.snapshot()


def _tracer_holders(system):
    """Every component of *system* that emits trace events."""
    gpu = system.gpu
    sub = gpu.subsystem
    channels = [*sub.gddr, sub.pcie_down, sub.pcie_up]
    channels += [nvm.read_channel for nvm in sub.nvm]
    return [gpu, sub, *gpu.sms, *sub.nvm, *channels]


def test_untraced_machine_holds_no_tracer(model):
    system, _ = run(model, False)
    assert all(c.tracer is None for c in _tracer_holders(system))


def test_traced_components_share_one_tracer():
    cfg = small_system(ModelName.SBRP)
    system = GPUSystem(cfg, trace=True)
    assert isinstance(system.tracer, Tracer)
    assert all(c.tracer is system.tracer for c in _tracer_holders(system))
    assert GPUSystem(cfg, trace=True).tracer is not system.tracer


def test_persist_lifecycle_is_ordered(model):
    system, _ = run(model, True)
    tracer = system.tracer
    assert tracer.persist_count > 0
    assert len(tracer.persists) == tracer.persist_count
    for record in tracer.persists:
        assert record.t_store <= record.t_drain
        assert record.t_drain <= record.t_accept <= record.t_ack
    # Every buffered persist reached durability after the final drain.
    assert not tracer._open_persists


def test_sbrp_traces_pb_occupancy_and_delays():
    system, _ = run(ModelName.SBRP, True)
    tracer = system.tracer
    tracks = {track for track, name, _, _ in tracer.counters if name == "pb_occupancy"}
    assert tracks, "SBRP runs must emit PB occupancy counters"
    # dFence forces drains within the run: buffer-phase latencies exist.
    assert tracer.phase_hist["buffer"].count == tracer.persist_count


def test_stall_attribution_reconciles(model):
    system, result = run(model, True)
    trace = chrome_trace(system.tracer, config=system.config, cycles=system.now)
    recon = reconcile(trace)
    # Attribution vs measured warp residency is exact by construction.
    assert recon["attributed"] == pytest.approx(recon["residency"])
    # Trace span vs end-to-end cycles: the acceptance criterion (±1%).
    assert recon["span_ratio"] == pytest.approx(1.0, abs=0.01)
    assert recon["cycles"] >= result.cycles


def test_fence_stalls_attributed_per_model(model):
    system, _ = run(model, True)
    dfence_cycles = sum(
        cats.get("dfence", 0.0) for cats in system.tracer.stall_totals.values()
    )
    assert dfence_cycles > 0


# ----------------------------------------------------------------------
# SBRP's drain memo: a traced pass always scans the PB, so a traced run
# is the reference for the untraced run, which may skip unchanged scans.
# ----------------------------------------------------------------------
@pytest.fixture
def scan_counts(monkeypatch):
    """Count SBRP drain passes and the scans they ran (test-local: a
    stats counter would move every SBRP pin)."""
    counts = {"passes": 0, "scans": 0}
    pump, scan = SBRPModel._pump, SBRPModel._scan

    def counting_pump(self, *args):
        counts["passes"] += 1
        return pump(self, *args)

    def counting_scan(self, *args):
        counts["scans"] += 1
        return scan(self, *args)

    monkeypatch.setattr(SBRPModel, "_pump", counting_pump)
    monkeypatch.setattr(SBRPModel, "_scan", counting_scan)
    return counts


def _skipped_scans(counts, run):
    counts.update(passes=0, scans=0)
    outcome = run()
    return outcome, counts["passes"] - counts["scans"]


GPKVS = dict(n_pairs=256, capacity=512, rounds=2)
HASHMAP = dict(n_inserts=256, capacity=512, rounds=2)
#: id -> (app, app params, SBRPConfig overrides).  Every case fills the
#: drain window; the small-PB case also stalls warps on a full PB.
SATURATING_RUNS = {
    "gpkvs": ("gpkvs", GPKVS, {}),
    "hashmap": ("hashmap", HASHMAP, {}),
    "multiqueue": ("multiqueue", dict(batches=2, blocks=3), {}),
    "hashmap-full-pb": ("hashmap", HASHMAP, dict(pb_coverage=0.05)),
}


@pytest.mark.parametrize("case", sorted(SATURATING_RUNS))
def test_traced_and_untraced_sbrp_apps_agree(case, scan_counts):
    name, params, sbrp = SATURATING_RUNS[case]

    def run_app(trace):
        config = small_system(ModelName.SBRP, sbrp=SBRPConfig(**sbrp))
        system = GPUSystem(config, trace=trace)
        app = build_app(name, **params)
        app.setup(system)
        app.run(system)
        system.sync()
        return system.now, system.stats.snapshot()

    untraced, skipped = _skipped_scans(scan_counts, lambda: run_app(False))
    traced, traced_skipped = _skipped_scans(scan_counts, lambda: run_app(True))
    assert skipped > 0, "the PB never saturated: the memo went unexercised"
    assert traced_skipped == 0
    assert untraced == traced


def merge_then_evict_kernel(w, data, flag):
    """One block of four warps on one SM, window 1, a one-set L1.

    Warp 0's persist fills the window and its oFence retires into the
    FSM; warp 1's persist then stops the scan at the window.  Warp 0
    coalesces a store into warp 1's entry, which puts an FSM bit on it,
    and warp 2's oFence behind it may now retire.  Warp 3 appends a
    persist after that oFence and evicts its line: the bypass is legal
    only if the oFence retired, that is, only if the merge invalidated
    the scan memo."""

    def line(i):
        return data.base + 128 * i + 4 * w.lane

    role = w.warp_in_block
    if role == 0:
        yield w.st(line(0), 1)
        yield w.ofence()
        yield w.compute(40)
        yield w.st(line(1), 2)  # coalesces into warp 1's entry
    elif role == 1:
        yield w.compute(20)
        yield w.st(line(1), 3)
        yield w.compute(80)
        yield w.ld(line(1))  # keeps line 1 off the LRU end
    elif role == 2:
        yield w.compute(60)
        yield w.ofence()
    else:
        yield w.compute(80)
        yield w.st(line(2), 4)
        yield w.compute(40)
        yield w.ld(data.base + 128 * (3 + w.lane % 3))  # evicts line 2


def evict_after_remove_kernel(w, data, flag):
    """One block of four warps on one SM, a one-set L1.

    Warp 0's oFence retires into the FSM, so its later persist P is
    held.  Warp 1 coalesces into P and appends E behind it, and warp 2
    coalesces into E and appends a block-scope pRel with a PM flag:
    every scan holds all three.  Warp 3 then evicts E's line, a legal
    bypass that removes E, and with it the hold on the pRel.  The next
    pass must retire the pRel, so its flag persists at the coming ACTR
    zero rather than one ack round trip later."""

    def line(i):
        return data.base + 128 * i + 4 * w.lane

    role = w.warp_in_block
    if role == 0:
        yield w.st(line(0), 1)
        yield w.ofence()
        yield w.st(line(1), 1)
    elif role == 1:
        yield w.compute(20)
        yield w.st(line(1), 2)  # coalesces into P
        yield w.st(line(2), 2)  # E
        yield w.compute(40)
        yield w.ld(line(1))  # keeps line 1 off the LRU end
    elif role == 2:
        yield w.compute(40)
        yield w.st(line(2), 3)  # coalesces into E
        yield w.prel(flag.base, 1, Scope.BLOCK)
    else:
        yield w.compute(80)
        yield w.ld(data.base + 128 * (3 + w.lane % 3))  # evicts line 2


def _run_one_sm(kernel, trace, **sbrp):
    """Run *kernel* as one block on one SM with a one-set (4-way) L1."""
    config = small_system(
        ModelName.SBRP,
        num_sms=1,
        l1_size=512,
        sbrp=SBRPConfig(pb_coverage=1.0, **sbrp),
    )
    system = GPUSystem(config, trace=trace)
    data = system.pm_create("d", 128 * 8)
    flag = system.pm_create("f", 128)
    result = system.launch(kernel, grid_blocks=1, args=(data, flag), drain=True)
    return result.cycles, system.stats.snapshot()


def test_store_merge_invalidates_the_drain_memo(scan_counts):
    untraced, skipped = _skipped_scans(
        scan_counts, lambda: _run_one_sm(merge_then_evict_kernel, False, window=1)
    )
    traced = _run_one_sm(merge_then_evict_kernel, True, window=1)
    assert skipped > 0
    assert traced[1]["sbrp.stores_coalesced"] == 1
    assert traced[1]["sbrp.evict_bypass"] == 1
    assert "sbrp.evict_stalls" not in traced[1]
    assert untraced == traced


def test_bypass_removal_invalidates_the_drain_memo(scan_counts):
    untraced, skipped = _skipped_scans(
        scan_counts, lambda: _run_one_sm(evict_after_remove_kernel, False)
    )
    traced = _run_one_sm(evict_after_remove_kernel, True)
    assert skipped > 0
    assert traced[1]["sbrp.stores_coalesced"] == 2
    assert traced[1]["sbrp.evict_bypass"] == 1
    assert untraced == traced
