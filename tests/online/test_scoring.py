"""``windowed_cost`` bisect rewrite + cold-start semantics."""

from __future__ import annotations

import numpy as np
import pytest

from repro._oracles import make_scoring_workload, windowed_cost_reference
from repro.apps.registry import get_app
from repro.errors import ConfigError
from repro.machine.config import xeon_phi_7250
from repro.online.scoring import windowed_cost
from repro.pipeline.framework import HybridMemoryFramework
from repro.units import MIB


class TestBisectEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_bit_identical_to_linear_scan_on_random_schedules(self, seed):
        """The bisect lookup must reproduce the old O(W*S) rescanning
        loop bit-for-bit: same windows, same accumulation order, so
        the RunCost dataclasses compare *equal*, not approximately."""
        rng = np.random.default_rng(seed)
        n_windows = int(rng.integers(50, 400))
        n_entries = int(rng.integers(2, 64))
        app, profiling, schedule = make_scoring_workload(
            n_windows, n_entries, seed
        )
        machine = xeon_phi_7250()
        assert windowed_cost(
            app, machine, profiling, schedule
        ) == windowed_cost_reference(app, machine, profiling, schedule)

    def test_real_framework_schedule_unchanged(self):
        """Online-daemon schedules start at t=0; the rewrite must not
        perturb their score."""
        fw = HybridMemoryFramework(get_app("phaseshift"))
        sites = fw.placement_sites(32 * MIB)
        schedule = [(0.0, fw.app.calibration.ddr_time, sites)]
        cost = windowed_cost(fw.app, fw.machine, fw.profile(), schedule)
        reference = windowed_cost_reference(
            fw.app, fw.machine, fw.profile(), schedule
        )
        assert cost == reference


class TestColdStart:
    def _late_schedule(self, seed=0):
        """A schedule whose first entry starts after early windows."""
        app, profiling, schedule = make_scoring_workload(64, 8, seed)
        horizon = app.calibration.ddr_time
        late = [
            (t0 + horizon / 4.0, t1 + horizon / 4.0, sites)
            for t0, t1, sites in schedule
        ]
        return app, profiling, late

    def test_uncovered_window_raises_by_default(self):
        app, profiling, late = self._late_schedule()
        with pytest.raises(ConfigError, match="before the first schedule"):
            windowed_cost(app, xeon_phi_7250(), profiling, late)

    def test_error_names_the_uncovered_window(self):
        app, profiling, late = self._late_schedule()
        first = profiling.ground_truth.windows[0]
        with pytest.raises(
            ConfigError, match=rf"\[{first.t0}"
        ):
            windowed_cost(app, xeon_phi_7250(), profiling, late)

    def test_cold_start_opt_in_scores_all_slow(self):
        """With the opt-in, pre-schedule windows score as the explicit
        all-slow cold start — exactly what the old code did silently."""
        app, profiling, late = self._late_schedule()
        machine = xeon_phi_7250()
        cost = windowed_cost(
            app, machine, profiling, late, cold_start=True
        )
        assert cost == windowed_cost_reference(
            app, machine, profiling, late
        )

    def test_empty_schedule_needs_cold_start_too(self):
        app, profiling, _ = self._late_schedule()
        machine = xeon_phi_7250()
        with pytest.raises(ConfigError, match="cold_start"):
            windowed_cost(app, machine, profiling, [])
        cost = windowed_cost(
            app, machine, profiling, [], cold_start=True
        )
        # Nothing ever placed fast: all traffic on the slow tier.
        assert cost == windowed_cost_reference(app, machine, profiling, [])
