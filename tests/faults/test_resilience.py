"""Resilience sweeps: the Figure-4 grid under escalating degradation."""

import pytest

from repro.faults.plan import FaultPlan
from repro.faults.resilience import run_resilience_sweep
from repro.parallel.sweep import run_sweep
from repro.reporting.tables import format_resilience
from tests.conftest import TinyApp
from tests.parallel.test_sweep import SMALL_GRID


@pytest.fixture(scope="module")
def ladder():
    plan = FaultPlan(
        seed=5,
        sample_drop_rate=0.1,
        sample_corrupt_rate=0.05,
        aslr_offset=4096,
        mcdram_capacity_factor=0.5,
        memkind_failure_rate=0.05,
    )
    return run_resilience_sweep(
        [TinyApp()], plan, factors=(0.0, 1.0), grid=SMALL_GRID
    )


class TestResilienceSweep:
    def test_one_row_per_rung(self, ladder):
        assert [row.factor for row in ladder.rows] == [0.0, 1.0]
        assert ladder.applications == ("tinyapp",)

    def test_clean_rung_is_the_reference(self, ladder):
        clean = ladder.rows[0]
        assert clean.plan is None
        assert clean.cells_total == 8
        assert clean.cells_ok == 8
        assert clean.fom_quality == pytest.approx(1.0)
        assert clean.hbw_fallbacks == 0
        assert clean.samples_dropped == 0

    def test_preferred_degradation_survives_every_cell(self, ladder):
        faulted = ladder.rows[1]
        assert faulted.plan is not None
        assert faulted.cells_ok == faulted.cells_total == 8
        assert faulted.survival_rate == 1.0
        assert faulted.hbw_fallbacks > 0
        assert faulted.samples_dropped > 0
        assert faulted.samples_corrupted > 0
        assert faulted.aslr_recoveries > 0
        assert faulted.fom_quality is not None
        assert ladder.worst_survival == 1.0

    def test_format_resilience(self, ladder):
        text = format_resilience(ladder)
        assert "resilience sweep: tinyapp" in text
        assert "worst-case cell survival: 100%" in text
        assert "FOM quality" in text


class TestPipelineDegradationCounters:
    def test_profile_and_replay_counters_roll_up(self):
        plan = FaultPlan(
            seed=2,
            sample_drop_rate=0.2,
            sample_corrupt_rate=0.1,
            aslr_offset=4096,
            mcdram_capacity_factor=0.5,
        )
        sweep = run_sweep(
            [TinyApp()], grid=SMALL_GRID, jobs=1, seed=0, fault_plan=plan
        )
        assert not sweep.failures
        assert sweep.metrics.count("samples_dropped") > 0
        assert sweep.metrics.count("samples_corrupted") > 0
        assert sweep.metrics.count("hbw_fallback") > 0
        assert sweep.metrics.count("aslr_recovery") > 0


class TestDeadlineColumn:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_counts_deadline_overruns(self, jobs):
        from repro.parallel.sweep import SweepConfig
        from tests.parallel.test_sweep import FIVE_CELLS

        plan = FaultPlan(seed=1, cell_hang_rate=1.0, cell_hang_seconds=0.15)
        table = run_resilience_sweep(
            [TinyApp()], plan, factors=(1.0,), grid=FIVE_CELLS,
            config=SweepConfig(jobs=jobs, retries=0, cell_deadline=0.05),
        )
        (row,) = table.rows
        assert row.cells_failed == 5
        assert row.deadlines == 5
        assert "deadlines" in format_resilience(table)
