"""The four-stage framework of Figure 2, glued end to end.

``HybridMemoryFramework`` drives one application through:

1. **profile** — instrumented run (Extrae substitute): allocation
   events + PEBS-sampled LLC misses into a trace;
2. **analyze** — Paramedir substitute: per-object miss/size profiles;
3. **advise** — hmem_advisor: pack objects into the memory spec under
   a selection strategy, emit the placement report;
4. **run_placed** — re-execution with auto-hbwmalloc honoring the
   report, scored by the execution model.

Each stage can also be used standalone (the CSV and report files
round-trip), exactly like the real toolchain.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.advisor.advisor import HmemAdvisor
from repro.advisor.report import PlacementReport
from repro.advisor.spec import MemorySpec, TierSpec
from repro.advisor.strategies import SelectionStrategy, get_strategy
from repro.analysis.paramedir import Paramedir
from repro.analysis.profile import ProfileSet
from repro.apps.base import ProfilingRun, SimApplication
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.machine.config import MachineConfig, xeon_phi_7250
from repro.pipeline.metrics import StageMetrics
from repro.placement.policies import PlacementOutcome, run_framework
from repro.trace.tracer import TracerConfig


@dataclass
class FrameworkRun:
    """Everything one full pass produced (kept for inspection)."""

    profiling: ProfilingRun
    profiles: ProfileSet
    report: PlacementReport
    outcome: PlacementOutcome


class HybridMemoryFramework:
    """End-to-end driver for one application on one machine."""

    def __init__(
        self,
        app: SimApplication,
        machine: MachineConfig | None = None,
        tracer_config: TracerConfig | None = None,
        seed: int = 0,
        metrics: StageMetrics | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        self.app = app
        self.machine = machine or xeon_phi_7250()
        self.tracer_config = tracer_config or TracerConfig(
            sampling_period=app.sampling_period
        )
        self.seed = seed
        #: Active degradation schedule (None: clean run). Sample
        #: drop/corruption lands on the profile stage's trace; replay
        #: faults flow through to the placement runners.
        self.fault_plan = fault_plan
        #: Stage execution accounting. Only *actual* stage work is
        #: recorded — returning the memoised profiling run counts
        #: nothing, which is what lets the sweep cache prove a warm
        #: run executed zero stages.
        self.metrics = metrics if metrics is not None else StageMetrics()
        self._profiling: ProfilingRun | None = None
        self._profiles: ProfileSet | None = None

    @classmethod
    def from_shared_profile(
        cls,
        app: SimApplication,
        machine: MachineConfig | None,
        shared,
        *,
        seed: int = 0,
        metrics: StageMetrics | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> "HybridMemoryFramework":
        """Build a framework around an already-profiled shared trace.

        ``shared`` is a :class:`~repro.trace.shared.SharedProfile`: the
        zero-copy trace view plus ground truth a sweep worker attached
        from the host's trace plane. The profiling memo is seeded
        directly, so :meth:`profile` never runs — no profile stage is
        recorded and no fault-plan trace degradation is re-applied
        (the publisher degraded the trace before exporting it, which
        is what keeps faulted sweeps bit-reproducible across the plane
        and private paths). Replay-side faults still flow through
        ``fault_plan`` as usual.
        """
        framework = cls(
            app,
            machine,
            seed=seed,
            metrics=metrics,
            fault_plan=fault_plan,
        )
        framework._profiling = ProfilingRun(
            trace=shared.trace,
            ground_truth=shared.ground_truth,
            sites={spec.name: spec for spec in app.objects},
        )
        return framework

    # -- step 1 ---------------------------------------------------------

    def profile(self, force: bool = False) -> ProfilingRun:
        """Run the instrumented execution (cached; placement-invariant)."""
        if self._profiling is None or force:
            with self.metrics.record("profile"):
                self._profiling = self.app.run_profiling(
                    seed=self.seed, tracer_config=self.tracer_config
                )
                if (
                    self.fault_plan is not None
                    and self.fault_plan.degrades_profile
                ):
                    dropped, corrupted = FaultInjector(
                        self.fault_plan
                    ).degrade_trace(self._profiling.trace)
                    if dropped:
                        self.metrics.bump("samples_dropped", dropped)
                    if corrupted:
                        self.metrics.bump("samples_corrupted", corrupted)
            self._profiles = None
        return self._profiling

    # -- step 2 ---------------------------------------------------------

    def analyze(self, force: bool = False) -> ProfileSet:
        """Reduce the trace to per-object statistics."""
        if self._profiles is None or force:
            run = self.profile()
            with self.metrics.record("analyze"):
                self._profiles = Paramedir().analyze(run.trace)
        return self._profiles

    # -- step 3 ---------------------------------------------------------

    def memory_spec(self, budget_real: int) -> MemorySpec:
        """Memory spec with the fast tier capped at ``budget_real``
        bytes per rank.

        Every ``TierSpec.budget`` is expressed in the simulation's
        *scaled* world, where the trace's object sizes live: the fast
        tier carries the scaled experiment budget, and every other
        tier carries its scaled hardware capacity. (Mixing worlds here
        — a scaled fast budget against raw real capacities — would
        make intermediate tiers of a three-tier machine effectively
        bottomless, since real capacities dwarf scaled object sizes.)
        """
        budget_scaled = self.app.scaled(budget_real)
        tiers = []
        for t in self.machine.tiers:
            budget = (
                budget_scaled
                if t is self.machine.fast_tier
                else self.app.scaled(t.capacity)
            )
            tiers.append(
                TierSpec(
                    name=t.name,
                    budget=budget,
                    relative_performance=t.relative_performance,
                )
            )
        return MemorySpec(tiers=tuple(tiers))

    def advise(
        self,
        budget_real: int,
        strategy: SelectionStrategy | str,
    ) -> PlacementReport:
        """Produce the placement report for one budget and strategy."""
        if isinstance(strategy, str):
            strategy = get_strategy(strategy)
        profiles = self.analyze()
        with self.metrics.record("advise"):
            advisor = HmemAdvisor(self.memory_spec(budget_real))
            return advisor.advise(profiles, strategy)

    def placement_sites(
        self,
        budget_real: int,
        strategy: SelectionStrategy | str = "misses-0%",
    ) -> frozenset[str]:
        """Site names the advisor fully promotes at this budget.

        The report speaks in translated call-stack keys; migration and
        cluster admission speak in site names. This is the one place
        that translation happens (the windowed scorer and the cluster
        scheduler both go through it).
        """
        report = self.advise(budget_real, strategy)
        site_of = self.app.key_to_site_name()
        return frozenset(
            site_of[identity]
            for identity in report.selected_keys(self.machine.fast_tier.name)
            if identity in site_of
        )

    # -- step 4 ---------------------------------------------------------

    def run_placed(
        self,
        report: PlacementReport,
        budget_real: int,
        label: str | None = None,
    ) -> PlacementOutcome:
        """Re-execute under auto-hbwmalloc honoring ``report``."""
        profiling = self.profile()
        with self.metrics.record("run_placed"):
            outcome = run_framework(
                self.app,
                self.machine,
                profiling,
                report,
                budget_real=budget_real,
                label=label,
                plan=self.fault_plan,
            )
        self.note_degradation(outcome)
        return outcome

    def note_degradation(self, outcome: PlacementOutcome) -> None:
        """Fold a replay hook's degradation counters into the metrics.

        Works for any hook exposing :class:`InterposerStats`-shaped
        counters; silently a no-op for hooks without them (numactl,
        plain DDR).
        """
        hook = outcome.replay.hook if outcome.replay is not None else None
        stats = getattr(hook, "stats", None)
        if stats is None:
            return
        fallbacks = getattr(stats, "hbw_fallbacks", 0)
        if fallbacks:
            self.metrics.bump("hbw_fallback", fallbacks)
        recoveries = getattr(stats, "aslr_recoveries", 0)
        if recoveries:
            self.metrics.bump("aslr_recovery", recoveries)

    # -- convenience ------------------------------------------------------

    def run(
        self,
        budget_real: int,
        strategy: SelectionStrategy | str = "misses-0%",
        advisor_budget_real: int | None = None,
    ) -> FrameworkRun:
        """One full pass: profile, analyze, advise, re-execute.

        ``advisor_budget_real`` decouples the budget the advisor plans
        with from the budget auto-hbwmalloc enforces — the Section
        IV-C "virtual 512 MB" experiment for allocation-churning
        applications.
        """
        profiling = self.profile()
        profiles = self.analyze()
        report = self.advise(
            advisor_budget_real
            if advisor_budget_real is not None
            else budget_real,
            strategy,
        )
        outcome = self.run_placed(report, budget_real)
        return FrameworkRun(
            profiling=profiling,
            profiles=profiles,
            report=report,
            outcome=outcome,
        )

    def run_windowed(
        self, budget_real: int, config=None, *, checkpoint_dir=None,
        resume: bool = False,
    ):
        """Windowed mode: re-advise per sample window and migrate,
        instead of the batch advise-once ``run()``. Returns an
        :class:`repro.online.OnlineOutcome` pairing the online session
        with its matched one-shot baseline. With ``checkpoint_dir`` the
        session logs every settled window; ``resume=True`` re-executes
        and verifies the logged windows, then runs the rest.
        """
        # Local import: repro.online drives this framework, so a
        # module-level import would be circular.
        from repro.online.scoring import run_windowed as _run_windowed

        return _run_windowed(
            self, budget_real, config,
            checkpoint_dir=checkpoint_dir, resume=resume,
        )
