"""Predict placement gains by replaying the trace — no re-execution.

Section V: "it would be interesting to explore ways on predicting the
application performance gains when moving some data objects into fast
memory and one possible approach could be to replay the trace-file
containing all the memory samples using a simulator."

The predictor consumes exactly what the framework already has after
stage 2 — the trace (or its per-object profiles) — plus a placement
report, and estimates the run time under that placement with the
machine's execution model. Unlike stage 4 it never replays
allocations, so it cannot see run-time budget refusals or allocation
churn: the prediction assumes every selected site is fully promoted.
Comparing prediction against the placed re-execution therefore also
*quantifies* how much those run-time effects cost (large gaps flag
churn-heavy applications like Lulesh).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.advisor.report import PlacementReport
from repro.analysis.objects import ObjectKind
from repro.analysis.paramedir import Paramedir
from repro.analysis.profile import ProfileSet
from repro.errors import AdvisorError, ConfigError
from repro.machine.config import MachineConfig
from repro.machine.performance import ExecutionModel, PlacedTraffic, RunCost
from repro.trace.columnar import ColumnarTrace
from repro.trace.tracefile import TraceFile

#: Either trace form; the predictor reduces it through Paramedir.
Trace = TraceFile | ColumnarTrace


@dataclass(frozen=True, slots=True)
class PredictedOutcome:
    """What the replay predicts for one placement."""

    cost: RunCost
    traffic: PlacedTraffic
    #: Fraction of sampled misses the placement serves from fast memory.
    promoted_miss_share: float

    @property
    def fom(self) -> float:
        return self.cost.fom


@dataclass(frozen=True, slots=True)
class PredictorCalibration:
    """The same three anchors the execution model needs.

    Matches :class:`repro.apps.base.AppCalibration`; kept separate so
    the predictor works from a trace alone, without an application
    model in scope.
    """

    fom_ddr: float
    ddr_time: float
    memory_bound_fraction: float

    @property
    def work(self) -> float:
        return self.fom_ddr * self.ddr_time

    @property
    def compute_time(self) -> float:
        return self.ddr_time * (1.0 - self.memory_bound_fraction)


class TraceReplayPredictor:
    """Estimate FOM under a placement from sampled data only."""

    def __init__(
        self,
        machine: MachineConfig,
        calibration: PredictorCalibration,
    ) -> None:
        self.machine = machine
        self.calibration = calibration
        self.model = ExecutionModel(machine)

    # -- inputs ----------------------------------------------------------

    def profiles_from_trace(self, trace: Trace) -> ProfileSet:
        """Stage-2 reduction, for callers starting from a raw trace."""
        return Paramedir().analyze(trace)

    def _profiles(self, profiles: ProfileSet | Trace) -> ProfileSet:
        if isinstance(profiles, ProfileSet):
            return profiles
        return self.profiles_from_trace(profiles)

    # -- prediction -------------------------------------------------------

    def _total_traffic(self) -> float:
        """Application traffic implied by the calibration.

        The calibration anchors are *DDR-run* quantities, so the
        traffic is derived against the DDR tier when the machine has
        one (a three-tier HBM/DDR/NVM node still calibrates against
        its DDR), falling back to the slowest tier otherwise.
        """
        try:
            reference = self.machine.tier("DDR")
        except ConfigError:
            reference = self.machine.slow_tier
        bw = self.model.bandwidth.tier_bandwidth(
            reference, self.machine.cores
        )
        cal = self.calibration
        return cal.memory_bound_fraction * cal.ddr_time * bw

    def predict(
        self,
        profiles: ProfileSet | Trace,
        report: PlacementReport,
        latency_weighted: bool = False,
    ) -> PredictedOutcome:
        """Predict the placed run from profiles (or a trace) + report.

        The sampled miss distribution is the statistical approximation
        of the true traffic split (the property the paper's whole
        methodology rests on), so the promoted share of samples is the
        promoted share of traffic.

        ``latency_weighted`` uses Xeon-PMU latency samples instead of
        raw miss counts: the promoted share is then the share of
        *stall cycles* avoided, which is what distinguishes expensive
        gathers from cheap streams (the Section III refinement).
        """
        profiles = self._profiles(profiles)
        total_samples = profiles.total_samples
        if total_samples == 0:
            raise AdvisorError("cannot predict from an empty profile set")

        dynamic = profiles.dynamic_profiles
        n_dyn = len(dynamic)
        if latency_weighted:
            weights = np.fromiter(
                (p.sampled_latency for p in dynamic), float, count=n_dyn
            )
            total_weight = float(
                sum(p.sampled_latency for p in profiles.profiles)
            )
            if total_weight == 0:
                raise AdvisorError(
                    "latency-weighted prediction needs latency samples"
                )
            # Stack/unresolved samples carry no latency record; charge
            # them the mean cost so the denominator stays total.
            mean = total_weight / max(
                sum(p.sampled_misses for p in profiles.profiles), 1
            )
            total_weight += mean * (
                profiles.stack_samples + profiles.unresolved_samples
            )
        else:
            weights = np.fromiter(
                (p.sampled_misses for p in dynamic), float, count=n_dyn
            )
            total_weight = float(total_samples)

        # fraction < 1 entries are the partial-placement extension:
        # promoting the leading fraction of an object's pages captures
        # (at least) that fraction of its misses.
        fraction_by_key = {
            e.key.identity: e.fraction
            for e in report.entries
            if e.key.kind == ObjectKind.DYNAMIC
        }
        fractions = np.fromiter(
            (fraction_by_key.get(p.key.identity, 0.0) for p in dynamic),
            float,
            count=n_dyn,
        )
        promoted = float(weights @ fractions)
        share = promoted / total_weight

        total = self._total_traffic()
        traffic = PlacedTraffic(
            by_tier={
                self.machine.fast_tier.name: total * share,
                self.machine.slow_tier.name: total * (1.0 - share),
            }
        )
        cost = self.model.cost(
            traffic,
            compute_time=self.calibration.compute_time,
            work=self.calibration.work,
            cores=self.machine.cores,
        )
        return PredictedOutcome(
            cost=cost, traffic=traffic, promoted_miss_share=share
        )

    def predict_tiered(
        self,
        profiles: ProfileSet | Trace,
        report: PlacementReport,
    ) -> PredictedOutcome:
        """Predict a *multi-tier* placement (HBM/DDR/NVM and beyond).

        Each report entry names the tier the advisor's cascade put the
        object on; everything unselected — including statics, the
        stack, and the unresolved remainder — lives on the machine's
        slowest tier (the fall-back of the multiple-knapsack scheme).
        """
        profiles = self._profiles(profiles)
        total_samples = profiles.total_samples
        if total_samples == 0:
            raise AdvisorError("cannot predict from an empty profile set")

        placement: dict[tuple, tuple[str, float]] = {
            e.key.identity: (e.tier, e.fraction)
            for e in report.entries
            if e.key.kind == ObjectKind.DYNAMIC
        }
        default = self.machine.slow_tier.name
        tier_names = [t.name for t in self.machine.tiers]
        tier_index = {name: i for i, name in enumerate(tier_names)}
        default_idx = tier_index[default]

        # Replay as three aligned arrays (misses, target tier, promoted
        # fraction) folded per tier with one weighted bincount each.
        dynamic = profiles.dynamic_profiles
        n_dyn = len(dynamic)
        misses = np.fromiter(
            (p.sampled_misses for p in dynamic), float, count=n_dyn
        )
        placed = [
            placement.get(p.key.identity, (default, 0.0)) for p in dynamic
        ]
        tiers_idx = np.fromiter(
            (tier_index[t] for t, _ in placed), np.int64, count=n_dyn
        )
        fractions = np.fromiter(
            (f for _, f in placed), float, count=n_dyn
        )
        per_tier = np.bincount(
            tiers_idx,
            weights=misses * fractions,
            minlength=len(tier_names),
        )
        per_tier[default_idx] += float(misses @ (1.0 - fractions))
        dynamic_samples = float(misses.sum())
        # Statics, stack and unresolved samples all live on the
        # fall-back tier.
        per_tier[default_idx] += total_samples - dynamic_samples
        tier_samples: dict[str, float] = {
            name: float(per_tier[i]) for i, name in enumerate(tier_names)
        }

        total = self._total_traffic()
        traffic = PlacedTraffic(
            by_tier={
                name: total * samples / total_samples
                for name, samples in tier_samples.items()
            }
        )
        cost = self.model.cost(
            traffic,
            compute_time=self.calibration.compute_time,
            work=self.calibration.work,
            cores=self.machine.cores,
        )
        fast_share = sum(
            samples
            for name, samples in tier_samples.items()
            if name != default
        ) / total_samples
        return PredictedOutcome(
            cost=cost, traffic=traffic, promoted_miss_share=fast_share
        )

    def predict_ddr(self, profiles: ProfileSet | Trace) -> PredictedOutcome:
        """The all-DDR prediction (sanity anchor: equals fom_ddr)."""
        empty = PlacementReport(application="", strategy="ddr")
        return self.predict(profiles, empty)

    def sweep(
        self,
        profiles: ProfileSet | Trace,
        reports: dict[str, PlacementReport],
    ) -> dict[str, PredictedOutcome]:
        """Predict several candidate placements from one profile set —
        the cheap what-if loop re-execution cannot offer."""
        profiles = self._profiles(profiles)
        return {
            label: self.predict(profiles, report)
            for label, report in reports.items()
        }
