"""Stage metrics: recording, merging, and framework instrumentation."""

import pytest

from repro.pipeline.framework import HybridMemoryFramework
from repro.pipeline.metrics import STAGE_NAMES, StageMetrics
from repro.reporting.tables import format_stage_metrics
from repro.units import MIB


class TestStageMetrics:
    def test_record_counts_and_times(self):
        m = StageMetrics()
        with m.record("profile"):
            pass
        with m.record("profile"):
            pass
        assert m.count("profile") == 2
        assert m.wall_seconds("profile") >= 0.0
        assert m.count("advise") == 0

    def test_record_counts_on_exception(self):
        m = StageMetrics()
        with pytest.raises(RuntimeError):
            with m.record("advise"):
                raise RuntimeError("boom")
        assert m.count("advise") == 1

    def test_bump_and_totals(self):
        m = StageMetrics()
        m.bump("cache_hit", 3)
        with m.record("analyze"):
            pass
        assert m.count("cache_hit") == 3
        # Bookkeeping counters are not pipeline stage executions.
        assert m.total_stage_executions == 1

    def test_merge(self):
        a = StageMetrics(counters={"profile": 1}, seconds={"profile": 0.25})
        b = StageMetrics(counters={"profile": 1, "retry": 1},
                         seconds={"profile": 0.5})
        a.merge(b)
        assert a.count("profile") == 2
        assert a.count("retry") == 1
        assert a.wall_seconds("profile") == pytest.approx(0.75)

    def test_round_trip_dict(self):
        m = StageMetrics()
        with m.record("run_placed"):
            pass
        m.bump("error")
        clone = StageMetrics.from_dict(m.to_dict())
        assert clone.counters == m.counters
        assert clone.seconds == m.seconds


class TestFrameworkInstrumentation:
    def test_stages_counted_once_when_memoised(self, tiny_app):
        fw = HybridMemoryFramework(tiny_app)
        fw.run(budget_real=64 * MIB, strategy="density")
        fw.run(budget_real=64 * MIB, strategy="density")
        # profile/analyze are memoised; advise/run_placed re-execute.
        assert fw.metrics.count("profile") == 1
        assert fw.metrics.count("analyze") == 1
        assert fw.metrics.count("advise") == 2
        assert fw.metrics.count("run_placed") == 2

    def test_force_reprofile_counts_again(self, tiny_app):
        fw = HybridMemoryFramework(tiny_app)
        fw.profile()
        fw.profile(force=True)
        assert fw.metrics.count("profile") == 2


class TestFormatStageMetrics:
    def test_renders_all_stages_and_counters(self):
        m = StageMetrics()
        for stage in STAGE_NAMES:
            with m.record(stage):
                pass
        m.bump("cache_hit", 5)
        text = format_stage_metrics(m)
        for stage in STAGE_NAMES:
            assert stage in text
        assert "cache_hit=5" in text
        assert "total" in text

    def test_quiet_without_bookkeeping(self):
        text = format_stage_metrics(StageMetrics())
        assert "counters:" not in text

    @pytest.mark.parametrize(
        "counter",
        ["deadline", "worker_crash", "journal_replay", "circuit_open"],
    )
    def test_shows_worker_losses_and_recovery_counters(self, counter):
        m = StageMetrics()
        m.bump(counter, 2)
        assert f"counters: {counter}=2" in format_stage_metrics(m)

    def test_deadline_failures_are_visible(self, tiny_app):
        """A sweep whose every cell fails on the deadline says so."""
        from repro.faults.plan import FaultPlan
        from repro.parallel.sweep import run_sweep
        from tests.parallel.test_sweep import FIVE_CELLS

        plan = FaultPlan(seed=1, cell_hang_rate=1.0, cell_hang_seconds=0.15)
        sweep = run_sweep(
            [tiny_app], grid=FIVE_CELLS, jobs=1, seed=0, fault_plan=plan,
            retries=0, cell_deadline=0.05,
        )
        text = format_stage_metrics(sweep.metrics)
        assert "error=5, deadline=5" in text
