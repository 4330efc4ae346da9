"""The crash-recovery harness.

Workflow::

    harness = CrashHarness(lambda: build_app("gpkvs"), config)
    report = harness.crash_at_fraction(0.5)   # power fails mid-run
    assert report.consistent

A harness simulates its workload once, lazily.  A caller that has
already run the workload to completion hands that run over with
:meth:`CrashHarness.adopt` instead, and the harness crashes it as is.

A *crash* is a point-in-time snapshot of the durable PM image (the
persist log records when each persist was accepted by an ADR memory
controller).  Recovery always happens on a **fresh machine**: new GPU,
cold caches, empty persist buffers — only the durable PM image and the
driver's namespace table survive, exactly like a real power cycle.

:func:`recover` is the one reboot → recover → judge step: the harness
and the fault campaign's soak chains both call it.  It classifies the
outcome by exception type alone, so a reworded message can never change
a verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

from repro.apps.base import App, RunOutcome
from repro.common.config import SystemConfig
from repro.common.errors import RecoveryError, ReproError
from repro.system import CrashImage, GPUSystem

AppFactory = Callable[[], App]

#: Recovery succeeded and the app's invariants hold.
CONSISTENT = "consistent"
#: Recovery ran but the app's invariant check rejected the state.
APP_VIOLATION = "app_violation"
#: The recovery machinery itself raised (recovery kernel crashed).
RECOVERY_RAISED = "recovery_raised"


def describe(exc: BaseException) -> str:
    """Stable one-line description: type name + message."""
    return f"{type(exc).__name__}: {exc}"


def recover(
    app: App, config: SystemConfig, image: CrashImage, **machine: Any
) -> Tuple[str, Optional[str], Optional[GPUSystem], float]:
    """Boot a fresh machine from *image*, recover *app*, check it.

    *machine* is passed on to the :class:`GPUSystem` constructor.
    Returns ``(classification, error, rebooted, recovery_cycles)``:

    * any :class:`ReproError` while rebooting, reopening, recovering or
      syncing gives :data:`RECOVERY_RAISED` (and no machine) — the
      recovery path must *itself* be crash-safe;
    * a :class:`RecoveryError` from ``app.check(rebooted,
      complete=False)`` gives :data:`APP_VIOLATION`;
    * otherwise the state is :data:`CONSISTENT`.
    """
    try:
        rebooted = GPUSystem(config, pm_image=image, **machine)
        app.reopen(rebooted)
        recovery = app.recover(rebooted)
        rebooted.sync()
    except ReproError as exc:
        return RECOVERY_RAISED, describe(exc), None, 0.0
    try:
        app.check(rebooted, complete=False)
    except RecoveryError as exc:
        return APP_VIOLATION, describe(exc), rebooted, recovery.cycles
    return CONSISTENT, None, rebooted, recovery.cycles


@dataclass
class CrashReport:
    """Outcome of one injected crash."""

    crash_time: float
    run_cycles: float
    recovery_cycles: float
    #: :data:`CONSISTENT`, :data:`APP_VIOLATION` or :data:`RECOVERY_RAISED`.
    classification: str
    completed: bool = False
    error: Optional[str] = None

    @property
    def consistent(self) -> bool:
        return self.classification == CONSISTENT


class CrashHarness:
    """Runs an app once, then injects crashes at chosen instants."""

    def __init__(
        self,
        factory: AppFactory,
        config: SystemConfig,
        faults: Optional[Any] = None,
    ) -> None:
        self.factory = factory
        self.config = config
        #: Optional :class:`repro.faults.FaultInjector` applied to the
        #: *baseline* run (and its crash images); recovery always
        #: happens on a clean machine.
        self.faults = faults
        self._baseline: Optional[GPUSystem] = None
        self._run: Optional[RunOutcome] = None

    # ------------------------------------------------------------------
    # baseline crash-free execution
    # ------------------------------------------------------------------
    def adopt(self, system: GPUSystem, run: RunOutcome) -> "CrashHarness":
        """Use *system*, on which the factory's app already ran to
        completion as *run* and was synced, as the baseline; nothing is
        re-simulated.  Returns the harness."""
        self._baseline = system
        self._run = run
        return self

    def baseline(self) -> GPUSystem:
        """Run the workload once (lazily); crashes replay against it."""
        if self._baseline is None:
            system = GPUSystem(self.config, faults=self.faults)
            app = self.factory()
            app.setup(system)
            self._run = app.run(system)
            system.sync()
            self._baseline = system
        return self._baseline

    @property
    def run_cycles(self) -> float:
        self.baseline()
        assert self._run is not None
        return self._run.cycles

    def end_time(self) -> float:
        return self.baseline().now

    # ------------------------------------------------------------------
    # crash injection
    # ------------------------------------------------------------------
    def crash_at(self, time: float, complete: bool = True) -> CrashReport:
        """Power failure at absolute simulated time *time*."""
        baseline = self.baseline()
        image = baseline.crash(at=min(time, baseline.now))
        return self._recover_from(image, complete)

    def crash_at_fraction(self, fraction: float, complete: bool = True) -> CrashReport:
        """Power failure *fraction* of the way through the execution.

        The endpoints are handled explicitly rather than through float
        boundary behavior: ``0.0`` crashes before the first persist is
        durable (the image is exactly the host-initialized state) and
        ``1.0`` crashes after the final sync (everything is durable).
        """
        if not 0 <= fraction <= 1:
            raise ValueError("fraction must be within [0, 1]")
        if fraction == 0:
            return self.crash_at(0.0, complete)
        if fraction == 1:
            return self.crash_at(self.end_time(), complete)
        return self.crash_at(self.end_time() * fraction, complete)

    def sweep(self, points: int = 8, complete: bool = True) -> List[CrashReport]:
        """Inject crashes at evenly spaced instants of the execution."""
        return [
            self.crash_at_fraction(i / (points + 1), complete)
            for i in range(1, points + 1)
        ]

    def persist_boundaries(self, limit: Optional[int] = None) -> List[float]:
        """Every instant at which the durable image changes: ``0.0``
        (pre-first-persist) plus each distinct persist-acceptance time.

        Crashing at each of these covers *every distinct durable image*
        of the execution — the exhaustive version of :meth:`sweep`.
        With *limit*, the list is subsampled deterministically (always
        keeping the first and last boundary).
        """
        baseline = self.baseline()
        times = [0.0] + baseline.gpu.subsystem.persist_log.boundary_times(
            end=baseline.now
        )
        if limit is not None and limit > 0 and len(times) > limit:
            if limit == 1:
                times = [times[-1]]
            else:
                step = (len(times) - 1) / (limit - 1)
                picked = {round(i * step) for i in range(limit)}
                times = [times[i] for i in sorted(picked)]
        return times

    def crash_at_every_persist(
        self, complete: bool = False, limit: Optional[int] = None
    ) -> List[CrashReport]:
        """Inject one crash per persist boundary (see
        :meth:`persist_boundaries`)."""
        return [
            self.crash_at(t, complete) for t in self.persist_boundaries(limit)
        ]

    # ------------------------------------------------------------------
    # recovery on a fresh machine
    # ------------------------------------------------------------------
    def _recover_from(self, image: CrashImage, complete: bool) -> CrashReport:
        app = self.factory()
        classification, error, rebooted, recovery_cycles = recover(
            app, self.config, image
        )
        report = CrashReport(
            crash_time=image.time,
            run_cycles=self.run_cycles,
            recovery_cycles=recovery_cycles,
            classification=classification,
            error=error,
        )
        if complete and report.consistent:
            # Forward progress: re-running the workload must finish the
            # job from the recovered state.
            app.run(rebooted)
            rebooted.sync()
            try:
                app.check(rebooted, complete=True)
                report.completed = True
            except RecoveryError as exc:
                report.error = describe(exc)
        return report

    def recovery_cycles_at_worst_case(self) -> float:
        """Recovery runtime for the paper's Figure 11 scenario: crash at
        the instant that maximizes recovery work (just before the last
        commit becomes durable)."""
        report = self.crash_at_fraction(0.999, complete=False)
        if not report.consistent:
            raise RecoveryError(f"worst-case recovery failed: {report.error}")
        return report.recovery_cycles
