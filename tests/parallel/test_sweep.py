"""Parallel sweep executor: determinism, caching, fault isolation."""

import pytest

from repro.errors import ConfigError
from repro.faults.plan import HBW_POLICY_BIND, FaultPlan
from repro.parallel.result_cache import ResultCache, cell_cache_key
from repro.parallel.sweep import (
    SKIPPED_ERROR,
    SweepConfig,
    SweepExecutor,
    run_sweep,
)
from repro.pipeline.experiment import (
    BASELINE_LABELS,
    ExperimentGrid,
    GridCell,
    enumerate_cells,
    run_figure4_experiment,
)
from repro.pipeline.results import ResultRow
from repro.units import MIB
from tests.conftest import TinyApp


class SecondApp(TinyApp):
    """A second, distinguishable application for multi-app sweeps."""

    name = "tinyapp2"
    sampling_period = 6


class BrokenApp(TinyApp):
    """Faults deterministically in the profile stage, every time."""

    name = "brokenapp"

    def run_profiling(self, seed=0, tracer_config=None):
        raise RuntimeError("injected worker fault")


class FlakyApp(TinyApp):
    """Faults once, then recovers (exercises the retry path)."""

    name = "flakyapp"
    failures_left = 1

    def run_profiling(self, seed=0, tracer_config=None):
        if type(self).failures_left > 0:
            type(self).failures_left -= 1
            raise RuntimeError("transient fault")
        return super().run_profiling(seed=seed, tracer_config=tracer_config)


class CrashOnceApp(TinyApp):
    """Kills its worker process on the first profiling attempt only
    (recorded via a marker file), like a segfaulting native library."""

    name = "crashonce"

    def run_profiling(self, seed=0, tracer_config=None):
        import os
        from pathlib import Path

        marker = Path(self.marker)
        if not marker.exists():
            marker.write_text("crashed once")
            os._exit(1)
        return super().run_profiling(seed=seed, tracer_config=tracer_config)


class DeterministicThenPoisonedApp(TinyApp):
    """The first profiling attempt fails deterministically, every later
    one with poisoned input (class state: run it in-process only)."""

    name = "detthenpoisoned"
    calls = 0

    def run_profiling(self, seed=0, tracer_config=None):
        type(self).calls += 1
        if type(self).calls == 1:
            raise RuntimeError("deterministic model bug")
        raise ConfigError("the input itself is bad")


#: Two budgets x two strategies: 4 grid cells + 4 baselines per app.
SMALL_GRID = ExperimentGrid(
    budgets=(32 * MIB, 64 * MIB), strategies=("density", "misses-0%")
)


class TestEnumerateCells:
    def test_counts_and_kinds(self, tiny_app):
        cells = enumerate_cells(tiny_app, SMALL_GRID)
        assert len(cells) == 8
        baselines = [c for c in cells if c.kind == "baseline"]
        assert tuple(c.label for c in baselines) == BASELINE_LABELS
        grid = [c for c in cells if c.kind == "grid"]
        assert all(c.budget_bytes > 0 for c in grid)

    def test_virtual_budget_propagates(self, tiny_app):
        grid = ExperimentGrid(
            budgets=(64 * MIB,),
            strategies=("density",),
            virtual_advisor_budgets={64 * MIB: 256 * MIB},
        )
        (cell,) = [c for c in enumerate_cells(tiny_app, grid) if c.kind == "grid"]
        assert cell.budget_bytes == 64 * MIB
        assert cell.advisor_budget_bytes == 256 * MIB

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            GridCell(kind="nonsense", label="x")


class TestSweepMatchesSerial:
    def test_serial_sweep_identical_rows(self, tiny_app):
        serial = run_figure4_experiment(tiny_app, grid=SMALL_GRID, seed=0)
        sweep = run_sweep([tiny_app], grid=SMALL_GRID, jobs=1, seed=0)
        assert not sweep.failures
        result = sweep.experiment(tiny_app)
        assert result.grid == serial.grid
        assert result.baselines == serial.baselines

    def test_parallel_two_apps_identical_rows(self):
        apps = [TinyApp(), SecondApp()]
        sweep = run_sweep(apps, grid=SMALL_GRID, jobs=2, seed=0)
        assert not sweep.failures
        for app in apps:
            serial = run_figure4_experiment(app, grid=SMALL_GRID, seed=0)
            result = sweep.experiment(app)
            assert result.grid == serial.grid
            assert result.baselines == serial.baselines

    def test_outcomes_in_enumeration_order(self):
        apps = [TinyApp(), SecondApp()]
        sweep = run_sweep(apps, grid=SMALL_GRID, jobs=2, seed=0)
        expected = [
            (app.name, cell.key)
            for app in apps
            for cell in enumerate_cells(app, SMALL_GRID)
        ]
        observed = [(o.application, o.cell.key) for o in sweep.outcomes]
        assert observed == expected

    def test_rejects_zero_jobs(self):
        with pytest.raises(ConfigError):
            SweepExecutor(config=SweepConfig(jobs=0))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"retries": -1},
            {"backoff_seconds": -0.1},
            {"timeout_seconds": 0},
            {"error_budget": 0},
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ConfigError):
            SweepConfig(**kwargs)


class TestResultCaching:
    def test_warm_rerun_executes_zero_stages(self, tiny_app, tmp_path):
        cold = run_sweep(
            [tiny_app], grid=SMALL_GRID, jobs=1, cache_dir=tmp_path, seed=0
        )
        assert cold.metrics.total_stage_executions > 0
        assert cold.metrics.count("cache_miss") == 8
        assert cold.metrics.count("cache_hit") == 0

        warm = run_sweep(
            [tiny_app], grid=SMALL_GRID, jobs=1, cache_dir=tmp_path, seed=0
        )
        assert warm.metrics.total_stage_executions == 0
        assert warm.metrics.count("cache_hit") == 8
        assert all(o.cached for o in warm.outcomes)
        assert warm.experiment(tiny_app).grid == cold.experiment(tiny_app).grid

    def test_warm_rerun_parallel(self, tiny_app, tmp_path):
        run_sweep([tiny_app], grid=SMALL_GRID, jobs=2, cache_dir=tmp_path)
        warm = run_sweep([tiny_app], grid=SMALL_GRID, jobs=2, cache_dir=tmp_path)
        assert warm.metrics.total_stage_executions == 0

    def test_seed_change_misses(self, tiny_app, tmp_path):
        run_sweep([tiny_app], grid=SMALL_GRID, cache_dir=tmp_path, seed=0)
        other = run_sweep([tiny_app], grid=SMALL_GRID, cache_dir=tmp_path, seed=1)
        assert other.metrics.count("cache_hit") == 0

    def test_failed_cells_are_not_cached(self, tmp_path):
        run_sweep([BrokenApp()], grid=SMALL_GRID, cache_dir=tmp_path)
        again = run_sweep([BrokenApp()], grid=SMALL_GRID, cache_dir=tmp_path)
        assert again.metrics.count("cache_hit") == 0
        assert len(again.failures) == 8


class TestCacheKey:
    def test_key_is_content_sensitive(self, tiny_app, machine):
        cell = enumerate_cells(tiny_app, SMALL_GRID)[0]
        other_cell = enumerate_cells(tiny_app, SMALL_GRID)[1]
        base = cell_cache_key(tiny_app, machine, cell, seed=0)
        assert cell_cache_key(tiny_app, machine, cell, seed=0) == base
        assert cell_cache_key(tiny_app, machine, cell, seed=1) != base
        assert cell_cache_key(tiny_app, machine, other_cell, seed=0) != base
        # A change to the application model must change the key.
        assert cell_cache_key(SecondApp(), machine, cell, seed=0) != base

    def test_key_is_fault_plan_sensitive(self, tiny_app, machine):
        cell = enumerate_cells(tiny_app, SMALL_GRID)[0]
        base = cell_cache_key(tiny_app, machine, cell, seed=0)
        # No plan and an explicit None must hash identically, so
        # pre-fault caches stay valid.
        assert cell_cache_key(
            tiny_app, machine, cell, seed=0, fault_plan=None
        ) == base
        plan = FaultPlan(seed=1, mcdram_capacity_factor=0.5)
        faulted = cell_cache_key(
            tiny_app, machine, cell, seed=0, fault_plan=plan
        )
        assert faulted != base
        other = FaultPlan(seed=1, mcdram_capacity_factor=0.25)
        assert cell_cache_key(
            tiny_app, machine, cell, seed=0, fault_plan=other
        ) != faulted

    def test_store_and_load(self, tmp_path):
        cache = ResultCache(tmp_path)
        row = ResultRow(
            application="x", label="density", budget_bytes=32 * MIB,
            fom=1.5, hwm_bytes=10, total_time=2.0,
        )
        cache.put("ab" + "0" * 62, row)
        assert cache.get("ab" + "0" * 62) == row
        assert len(cache) == 1
        assert cache.hit_ratio == 1.0

    def test_cache_dir_must_be_a_directory(self, tmp_path):
        from repro.errors import ConfigError

        plain_file = tmp_path / "occupied"
        plain_file.write_text("not a directory")
        with pytest.raises(ConfigError, match="not a directory"):
            ResultCache(plain_file)

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "cd" + "0" * 62
        row = ResultRow(
            application="x", label="density", budget_bytes=0,
            fom=1.0, hwm_bytes=0, total_time=1.0,
        )
        cache.put(key, row)
        cache._path(key).write_text("{not json")
        assert cache.get(key) is None
        assert cache.misses == 1


class TestFaultIsolation:
    def test_error_row_does_not_abort_parallel_sweep(self):
        sweep = run_sweep(
            [TinyApp(), BrokenApp()], grid=SMALL_GRID, jobs=2, seed=0
        )
        assert len(sweep.failures) == 8
        assert all(o.application == "brokenapp" for o in sweep.failures)
        assert all("injected worker fault" in o.error for o in sweep.failures)
        # Each failing cell was retried exactly once.
        assert all(o.attempts == 2 for o in sweep.failures)
        assert sweep.metrics.count("retry") == 8
        assert sweep.metrics.count("error") == 8
        # The healthy application's row set is complete and correct.
        serial = run_figure4_experiment(TinyApp(), grid=SMALL_GRID, seed=0)
        assert sweep.experiment(TinyApp()).grid == serial.grid

    def test_worker_crash_is_requeued_not_fatal(self, tmp_path):
        """A worker that dies mid-cell (no deadline set) is replaced and
        its cells requeued; the sweep finishes with the serial rows."""
        app = CrashOnceApp()
        app.marker = str(tmp_path / "marker")
        (tmp_path / "marker").write_text("pre")
        serial = run_sweep([app], grid=SMALL_GRID, jobs=1, seed=0)
        (tmp_path / "marker").unlink()

        sweep = run_sweep(
            [app], grid=SMALL_GRID, jobs=2, seed=0, retries=2
        )
        assert not sweep.failures
        assert sweep.metrics.count("worker_crash") >= 1
        assert sweep.metrics.count("requeue") >= 1
        assert sweep.rows(app.name) == serial.rows(app.name)
        assert sweep.experiment(app).grid == serial.experiment(app).grid

    def test_retry_recovers_transient_fault(self):
        FlakyApp.failures_left = 1
        sweep = run_sweep([FlakyApp()], grid=SMALL_GRID, jobs=1, seed=0)
        assert not sweep.failures
        assert sweep.metrics.count("retry") == 1
        retried = [o for o in sweep.outcomes if o.attempts == 2]
        assert len(retried) == 1

    def test_exhausted_retries_capture_traceback(self):
        sweep = run_sweep([BrokenApp()], grid=SMALL_GRID, jobs=1, seed=0)
        failure = sweep.failures[0]
        assert failure.row is None
        assert "RuntimeError" in failure.error
        assert "run_profiling" in failure.error


#: One budget x one strategy: 4 baselines + 1 grid cell (5 cells) —
#: for the timeout tests, where every cell costs wall-clock time.
FIVE_CELLS = ExperimentGrid(budgets=(32 * MIB,), strategies=("density",))

#: A plan exercising every degradation class at once.
FAULTY_PLAN = FaultPlan(
    seed=11,
    sample_drop_rate=0.1,
    sample_corrupt_rate=0.05,
    aslr_offset=4096,
    mcdram_capacity_factor=0.5,
    memkind_failure_rate=0.02,
    cell_kill_rate=0.3,
)


class TestFaultPlanSweeps:
    def test_bit_reproducible_serial_vs_parallel(self):
        def signature(sweep):
            return [
                (o.application, o.cell.key, o.row, o.attempts, o.ok)
                for o in sweep.outcomes
            ]

        serial = run_sweep(
            [TinyApp(), SecondApp()], grid=SMALL_GRID, jobs=1, seed=0,
            fault_plan=FAULTY_PLAN,
        )
        parallel = run_sweep(
            [TinyApp(), SecondApp()], grid=SMALL_GRID, jobs=2, seed=0,
            fault_plan=FAULTY_PLAN,
        )
        assert signature(serial) == signature(parallel)
        # Injection decisions are seed-keyed, so the deterministic
        # degradation counters agree too.
        for counter in ("cell_killed", "oom"):
            assert serial.metrics.count(counter) == parallel.metrics.count(
                counter
            ), counter

    def test_preferred_shrink_completes_every_cell(self):
        plan = FaultPlan(seed=3, mcdram_capacity_factor=0.5)
        sweep = run_sweep(
            [TinyApp()], grid=SMALL_GRID, jobs=1, seed=0, fault_plan=plan
        )
        assert not sweep.failures
        assert not sweep.skipped
        assert len(sweep.outcomes) == 8
        assert sweep.metrics.count("hbw_fallback") > 0

    def test_bind_shrink_surfaces_per_cell_oom(self):
        plan = FaultPlan(
            seed=3, mcdram_capacity_factor=0.5, hbw_policy=HBW_POLICY_BIND
        )
        sweep = run_sweep(
            [TinyApp()], grid=SMALL_GRID, jobs=1, seed=0, fault_plan=plan
        )
        # The capacity-blind autohbw baseline overcommits the shrunken
        # tier and dies; the sweep itself survives and every other
        # cell still produces a row.
        assert len(sweep.outcomes) == 8
        assert 1 <= len(sweep.failures) < 8
        assert all("OutOfMemoryError" in o.error for o in sweep.failures)
        assert sweep.metrics.count("oom") >= 1
        assert sum(1 for o in sweep.outcomes if o.ok) == 8 - len(
            sweep.failures
        )

    def test_hang_timeout_serial(self):
        plan = FaultPlan(seed=1, cell_hang_rate=1.0, cell_hang_seconds=0.15)
        sweep = run_sweep(
            [TinyApp()], grid=FIVE_CELLS, jobs=1, seed=0, fault_plan=plan,
            retries=0, timeout_seconds=0.05,
        )
        assert len(sweep.failures) == 5
        assert all("timeout" in o.error for o in sweep.failures)
        assert sweep.metrics.count("timeout") == 5
        assert sweep.metrics.count("cell_hung") == 5

    def test_hang_timeout_parallel(self):
        plan = FaultPlan(seed=1, cell_hang_rate=1.0, cell_hang_seconds=0.25)
        sweep = run_sweep(
            [TinyApp()], grid=FIVE_CELLS, jobs=2, seed=0, fault_plan=plan,
            retries=0, timeout_seconds=0.05,
        )
        assert len(sweep.failures) == 5
        assert all("timeout" in o.error for o in sweep.failures)
        assert sweep.metrics.count("timeout") == 5

    def test_error_budget_fail_fast_serial(self):
        sweep = run_sweep(
            [BrokenApp()], grid=SMALL_GRID, jobs=1, seed=0, retries=0,
            error_budget=2,
        )
        assert len(sweep.failures) == 2
        assert len(sweep.skipped) == 6
        assert all(o.error == SKIPPED_ERROR for o in sweep.skipped)
        assert sweep.metrics.count("skipped") == 6

    def test_error_budget_fail_fast_parallel(self):
        sweep = run_sweep(
            [BrokenApp()], grid=SMALL_GRID, jobs=2, seed=0, retries=0,
            error_budget=2,
        )
        # Cells already inflight when the budget trips still settle as
        # failures, but the queued remainder must be skipped unrun.
        assert len(sweep.failures) >= 2
        assert len(sweep.skipped) >= 1
        assert len(sweep.failures) + len(sweep.skipped) == 8

    def test_retry_with_backoff_recovers_injected_kill(self):
        plan = FaultPlan(seed=20, cell_kill_rate=0.4)
        sweep = run_sweep(
            [TinyApp()], grid=SMALL_GRID, jobs=1, seed=0, fault_plan=plan,
            retries=3, backoff_seconds=0.005,
        )
        assert not sweep.failures
        assert sweep.metrics.count("retry") >= 1
        assert sweep.metrics.count("cell_killed") >= 1
        assert any(o.attempts > 1 for o in sweep.outcomes)

    def test_faulted_and_clean_results_never_mix_in_cache(
        self, tiny_app, tmp_path
    ):
        plan = FaultPlan(seed=2, mcdram_capacity_factor=0.5)
        run_sweep([tiny_app], grid=SMALL_GRID, cache_dir=tmp_path, seed=0)
        faulted = run_sweep(
            [tiny_app], grid=SMALL_GRID, cache_dir=tmp_path, seed=0,
            fault_plan=plan,
        )
        assert faulted.metrics.count("cache_hit") == 0
        warm = run_sweep(
            [tiny_app], grid=SMALL_GRID, cache_dir=tmp_path, seed=0,
            fault_plan=plan,
        )
        assert warm.metrics.count("cache_hit") == 8
        assert warm.metrics.total_stage_executions == 0


class SleepySweepApp(TinyApp):
    """Hangs until a sentinel file exists (created on the first
    profiling attempt), then behaves exactly like TinyApp."""

    name = "sleepysweep"

    def run_profiling(self, seed=0, tracer_config=None):
        from pathlib import Path
        import time

        sentinel = Path(self.sentinel)
        if not sentinel.exists():
            sentinel.write_text("hung once")
            time.sleep(60)
        return super().run_profiling(seed=seed, tracer_config=tracer_config)


class PoisonedApp(TinyApp):
    """Fails with a poisoned-input error: retrying is pointless."""

    name = "poisonedapp"

    def run_profiling(self, seed=0, tracer_config=None):
        raise ConfigError("the input itself is bad")


class TestBackoffJitter:
    def test_deterministic_and_bounded(self):
        executor = SweepExecutor(
            config=SweepConfig(backoff_seconds=0.1, seed=3)
        )
        token = ("tinyapp", ("grid", "density", 32 * MIB))
        delays = [executor._backoff(n, token) for n in range(1, 8)]
        assert delays == [executor._backoff(n, token) for n in range(1, 8)]
        base, cap = 0.1, 0.1 * 32
        assert all(base <= d <= cap for d in delays)

    def test_jitter_decorrelates_cells(self):
        """Different cells draw different delays for the same attempt,
        so a requeued batch does not stampede in lockstep."""
        executor = SweepExecutor(
            config=SweepConfig(backoff_seconds=0.1, seed=3)
        )
        delays = {
            executor._backoff(2, ("app", ("grid", s, 0)))
            for s in ("a", "b", "c", "d")
        }
        assert len(delays) > 1

    def test_seed_changes_schedule(self):
        one = SweepExecutor(config=SweepConfig(backoff_seconds=0.1, seed=0))
        two = SweepExecutor(config=SweepConfig(backoff_seconds=0.1, seed=1))
        token = ("app", ("grid", "density", 0))
        assert one._backoff(3, token) != two._backoff(3, token)

    def test_zero_base_disables(self):
        executor = SweepExecutor(config=SweepConfig(backoff_seconds=0.0))
        assert executor._backoff(5, ("app", ())) == 0.0


class TestCacheQuarantine:
    def test_corrupt_entry_quarantined_and_repaired(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ef" + "0" * 62
        row = ResultRow(
            application="x", label="density", budget_bytes=0,
            fom=1.0, hwm_bytes=0, total_time=1.0,
        )
        cache.put(key, row)
        path = cache._path(key)
        path.write_text('{"schema": 1, "row": {"trunca')
        assert cache.get(key) is None
        assert cache.quarantined == 1
        # Evidence preserved, live name freed, store-then-hit works.
        assert path.with_suffix(".corrupt").exists()
        assert not path.exists()
        assert len(cache) == 0
        cache.put(key, row)
        assert cache.get(key) == row

    def test_missing_entry_is_not_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("ab" + "0" * 62) is None
        assert cache.quarantined == 0

    def test_sweep_survives_a_corrupted_cache_entry(self, tiny_app, tmp_path):
        cold = run_sweep([tiny_app], grid=SMALL_GRID, cache_dir=tmp_path)
        cache = ResultCache(tmp_path)
        victim = next(tmp_path.glob("*/*.json"))
        victim.write_text("torn {{{")
        warm = run_sweep([tiny_app], grid=SMALL_GRID, cache_dir=tmp_path)
        assert not warm.failures
        assert warm.metrics.count("cache_hit") == 7
        assert warm.metrics.count("cache_miss") == 1
        assert warm.experiment(tiny_app).grid == cold.experiment(tiny_app).grid


class TestJournalSweep:
    def journal_path(self, directory):
        from repro.parallel.journal import JOURNAL_FILENAME

        return directory / JOURNAL_FILENAME

    def test_cold_run_writes_complete_journal(self, tiny_app, tmp_path):
        from repro.parallel.journal import read_journal

        sweep = run_sweep([tiny_app], grid=SMALL_GRID, journal_dir=tmp_path)
        assert not sweep.failures
        replay = read_journal(self.journal_path(tmp_path))
        assert len(replay.settled) == 8
        assert replay.completed
        assert replay.inflight == []
        assert replay.damaged_records == 0

    def test_resume_replays_everything_executes_nothing(
        self, tiny_app, tmp_path
    ):
        cold = run_sweep([tiny_app], grid=SMALL_GRID, journal_dir=tmp_path)
        warm = run_sweep(
            [tiny_app], grid=SMALL_GRID, journal_dir=tmp_path, resume=True
        )
        assert warm.metrics.total_stage_executions == 0
        assert warm.metrics.count("journal_replay") == 8
        assert all(o.resumed for o in warm.outcomes)
        assert len(warm.resumed) == 8
        assert warm.experiment(tiny_app).grid == cold.experiment(tiny_app).grid
        assert warm.experiment(tiny_app).baselines == cold.experiment(
            tiny_app
        ).baselines

    @pytest.mark.parametrize("settled", [0, 1, 4, 7])
    def test_partial_journal_resume_equals_uninterrupted(
        self, tiny_app, tmp_path, settled
    ):
        """The resume invariant: replaying the first k settled cells
        and executing the rest produces exactly the uninterrupted
        sweep, for every prefix k a crash could have left behind."""
        from repro.parallel.journal import (
            RECORD_OUTCOME,
            decode_record,
            read_journal,
        )

        journal_dir = tmp_path / "journal"
        full = run_sweep(
            [tiny_app], grid=SMALL_GRID, journal_dir=journal_dir, seed=0
        )
        path = self.journal_path(journal_dir)
        # Cut the journal after the first `settled` outcome records —
        # the prefix a crash at that point would have made durable.
        kept, outcomes_seen = [], 0
        for line in path.read_text().splitlines():
            record_type, _ = decode_record(line)
            if record_type == RECORD_OUTCOME:
                if outcomes_seen == settled:
                    continue
                outcomes_seen += 1
            if record_type == "end":
                continue
            kept.append(line)
        path.write_text("".join(line + "\n" for line in kept))
        assert len(read_journal(path).settled) == settled

        resumed = run_sweep(
            [tiny_app], grid=SMALL_GRID, journal_dir=journal_dir, seed=0,
            resume=True,
        )
        assert not resumed.failures
        assert resumed.metrics.count("journal_replay") == settled
        assert len(resumed.resumed) == settled
        assert resumed.experiment(tiny_app).grid == full.experiment(
            tiny_app
        ).grid
        assert resumed.experiment(tiny_app).baselines == full.experiment(
            tiny_app
        ).baselines
        # The repaired journal is now complete for the whole sweep.
        final = read_journal(path)
        assert len(final.settled) == 8
        assert final.completed

    def test_failures_are_journaled_and_replayed(self, tmp_path):
        run_sweep(
            [BrokenApp()], grid=SMALL_GRID, journal_dir=tmp_path, retries=0
        )
        again = run_sweep(
            [BrokenApp()], grid=SMALL_GRID, journal_dir=tmp_path,
            retries=0, resume=True,
        )
        assert again.metrics.count("journal_replay") == 8
        assert len(again.failures) == 8
        assert all("injected worker fault" in o.error for o in again.failures)
        assert all(o.resumed for o in again.outcomes)

    def test_resume_against_different_sweep_refused(self, tiny_app, tmp_path):
        from repro.errors import JournalError

        run_sweep([tiny_app], grid=SMALL_GRID, journal_dir=tmp_path, seed=0)
        with pytest.raises(JournalError, match="different sweep"):
            run_sweep(
                [tiny_app], grid=SMALL_GRID, journal_dir=tmp_path, seed=1,
                resume=True,
            )

    def test_journal_and_cache_compose(self, tiny_app, tmp_path):
        """Cache answers are journaled as outcomes, so a resume after
        a cache-warm run replays instead of re-reading the cache."""
        cache_dir, journal_dir = tmp_path / "cache", tmp_path / "j1"
        run_sweep([tiny_app], grid=SMALL_GRID, cache_dir=cache_dir)
        warm = run_sweep(
            [tiny_app], grid=SMALL_GRID, cache_dir=cache_dir,
            journal_dir=journal_dir,
        )
        assert warm.metrics.count("cache_hit") == 8
        resumed = run_sweep(
            [tiny_app], grid=SMALL_GRID, cache_dir=cache_dir,
            journal_dir=journal_dir, resume=True,
        )
        assert resumed.metrics.count("journal_replay") == 8
        assert resumed.metrics.count("cache_hit") == 0


class TestCircuitBreakerSweep:
    def test_circuit_opens_and_skips_remaining_cells(self):
        sweep = run_sweep(
            [BrokenApp()], grid=SMALL_GRID, retries=0, circuit_threshold=2
        )
        assert len(sweep.failures) == 2
        assert len(sweep.skipped) == 6
        assert all("circuit open" in o.error for o in sweep.skipped)
        assert sweep.metrics.count("circuit_open") == 6

    def test_circuit_is_per_application(self):
        sweep = run_sweep(
            [BrokenApp(), TinyApp()], grid=SMALL_GRID, retries=0,
            circuit_threshold=2,
        )
        assert all(o.ok for o in sweep.outcomes if o.application == "tinyapp")
        serial = run_figure4_experiment(TinyApp(), grid=SMALL_GRID, seed=0)
        assert sweep.experiment(TinyApp()).grid == serial.grid

    def test_transient_failures_do_not_trip_the_circuit(self):
        plan = FaultPlan(seed=20, cell_kill_rate=0.4)
        sweep = run_sweep(
            [TinyApp()], grid=SMALL_GRID, seed=0, fault_plan=plan,
            retries=3, circuit_threshold=1,
        )
        assert not sweep.failures
        assert not sweep.skipped
        assert sweep.metrics.count("circuit_open") == 0

    def test_poisoned_input_fails_fast_without_retries(self):
        sweep = run_sweep([PoisonedApp()], grid=SMALL_GRID, retries=3)
        assert len(sweep.failures) == 8
        assert all(o.attempts == 1 for o in sweep.failures)
        assert sweep.metrics.count("retry") == 0

    def test_retry_waiting_on_backoff_settles_once_circuit_opens(self):
        """A retry still waiting out its backoff when its app's circuit
        opens is not dispatched: it settles with its last error."""
        DeterministicThenPoisonedApp.calls = 0
        sweep = run_sweep(
            [DeterministicThenPoisonedApp()], grid=SMALL_GRID, jobs=1,
            seed=0, retries=1, backoff_seconds=0.2, circuit_threshold=1,
        )
        first, second = sweep.outcomes[0], sweep.outcomes[1]
        assert first.attempts == 1
        assert not first.skipped
        assert "deterministic model bug" in first.error
        assert "the input itself is bad" in second.error
        assert sweep.metrics.count("retry") == 1
        assert sweep.metrics.count("circuit_open") == 6
        assert DeterministicThenPoisonedApp.calls == 2

    def test_breaker_disabled_by_default(self):
        sweep = run_sweep([BrokenApp()], grid=SMALL_GRID, retries=0)
        assert len(sweep.failures) == 8
        assert not sweep.skipped


class TestSupervisedSweep:
    def test_matches_serial_rows(self, tiny_app):
        serial = run_figure4_experiment(tiny_app, grid=SMALL_GRID, seed=0)
        sweep = run_sweep(
            [tiny_app], grid=SMALL_GRID, jobs=2, seed=0, cell_deadline=60.0
        )
        assert not sweep.failures
        assert sweep.metrics.count("deadline_kill") == 0
        result = sweep.experiment(tiny_app)
        assert result.grid == serial.grid
        assert result.baselines == serial.baselines

    def test_hung_worker_is_killed_and_cell_requeued(self, tmp_path):
        app = SleepySweepApp()
        app.sentinel = str(tmp_path / "sentinel")
        # Serial reference with the sentinel pre-created (no hang).
        (tmp_path / "sentinel").write_text("pre")
        serial = run_figure4_experiment(app, grid=FIVE_CELLS, seed=0)
        (tmp_path / "sentinel").unlink()

        sweep = run_sweep(
            [app], grid=FIVE_CELLS, jobs=2, seed=0, cell_deadline=1.5,
            requeue_budget=3,
        )
        assert not sweep.failures
        assert sweep.metrics.count("deadline_kill") >= 1
        assert sweep.metrics.count("requeue") >= 1
        result = sweep.experiment(app)
        assert result.grid == serial.grid
        assert result.baselines == serial.baselines

    def test_requeue_budget_exhaustion_is_an_honest_failure(self, tmp_path):
        from tests.parallel.test_supervisor import AlwaysHangs

        sweep = run_sweep(
            [AlwaysHangs()], grid=FIVE_CELLS, jobs=2, seed=0,
            cell_deadline=0.5, requeue_budget=0, retries=0,
        )
        assert len(sweep.failures) == 5
        assert all("deadline" in o.error for o in sweep.failures)
        assert sweep.metrics.count("deadline_kill") == 5

    def test_serial_cell_deadline_enforced_post_hoc(self):
        plan = FaultPlan(seed=1, cell_hang_rate=1.0, cell_hang_seconds=0.15)
        sweep = run_sweep(
            [TinyApp()], grid=FIVE_CELLS, jobs=1, seed=0, fault_plan=plan,
            retries=0, cell_deadline=0.05,
        )
        assert len(sweep.failures) == 5
        assert all("deadline" in o.error for o in sweep.failures)
        assert sweep.metrics.count("deadline_exceeded") == 5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"cell_deadline": 0},
            {"requeue_budget": -1},
            {"circuit_threshold": 0},
            {"resume": True},
        ],
    )
    def test_rejects_bad_robustness_knobs(self, kwargs):
        with pytest.raises(ConfigError):
            SweepConfig(**kwargs)


def _row_signature(sweep):
    return [
        (o.application, o.cell.key, o.row, o.attempts, o.ok)
        for o in sweep.outcomes
    ]


def _journal_payloads(journal_dir):
    """Canonicalised settled outcomes of one sweep journal.

    Keyed by the cell's content hash; the wall-clock ``metrics``
    seconds and the settle *order* legitimately differ between serial
    and pool runs, so equality is asserted on everything else."""
    from repro.parallel.journal import (
        JOURNAL_FILENAME,
        RECORD_OUTCOME,
        decode_record,
    )

    payloads = {}
    lines = (journal_dir / JOURNAL_FILENAME).read_text().splitlines()
    for line in lines:
        record_type, payload = decode_record(line)
        if record_type != RECORD_OUTCOME:
            continue
        payloads[payload["key"]] = {
            field: payload.get(field)
            for field in (
                "application", "cell", "row", "error", "category",
                "attempts", "cached", "skipped",
            )
        }
    return payloads


class TestSharedPlaneSweep:
    """The zero-copy trace plane and batched dispatch must be pure
    optimisations: identical rows, identical journals, counted (never
    fatal) degradation."""

    def test_equality_matrix(self, tmp_path, monkeypatch):
        """Serial, supervised workers, workers + plane (both backends)
        and per-cell dispatch settle identical rows and identical
        journals, clean and under a fault plan."""
        from repro.parallel.supervisor import WorkerSupervisor

        batches = []
        submit = WorkerSupervisor.submit

        def recording_submit(self, app, cells, attempts):
            batches.append(len(cells))
            return submit(self, app, cells, attempts)

        monkeypatch.setattr(WorkerSupervisor, "submit", recording_submit)
        apps = [TinyApp(), SecondApp()]
        variants = {
            "serial": dict(jobs=1),
            "workers": dict(jobs=2),
            "plane-shm": dict(jobs=2, shared_plane=True),
            "plane-mmap": dict(
                jobs=2, shared_plane=True, plane_backend="mmap"
            ),
            "per-cell": dict(jobs=2, cell_deadline=60.0),
        }
        for plan in (None, FAULTY_PLAN):
            signatures, journals = {}, {}
            for label, kwargs in variants.items():
                batches.clear()
                journal_dir = tmp_path / f"{label}-{plan is not None}"
                sweep = run_sweep(
                    apps, grid=SMALL_GRID, seed=0, fault_plan=plan,
                    journal_dir=journal_dir, **kwargs,
                )
                if plan is None:
                    assert not sweep.failures, label
                if label in ("workers", "plane-shm", "plane-mmap"):
                    # Auto sizing: 16 cells over 2 workers -> pairs.
                    assert max(batches) == 2, label
                elif label == "per-cell":
                    assert set(batches) == {1}
                signatures[label] = _row_signature(sweep)
                journals[label] = _journal_payloads(journal_dir)
            reference_rows = signatures.pop("serial")
            reference_journal = journals.pop("serial")
            for label, signature in signatures.items():
                assert signature == reference_rows, (label, plan)
            for label, journal in journals.items():
                assert journal == reference_journal, (label, plan)

    def test_plane_metrics_account_publish_and_attach(self):
        sweep = run_sweep(
            [TinyApp(), SecondApp()], grid=SMALL_GRID, jobs=2, seed=0,
            shared_plane=True,
        )
        assert not sweep.failures
        assert sweep.metrics.count("plane_publish") == 2
        assert sweep.metrics.count("plane_attach") >= 1
        assert sweep.metrics.count("plane_fallback") == 0
        # The parent's single profile run per app is the only profile
        # work in the whole sweep.
        assert sweep.metrics.count("profile") == 2

    def test_faulted_plane_sweep_matches_private_paths(self):
        """A profile-degrading plan forces the row-mode publish path;
        rows must still match serial and planeless pools bit for bit."""
        serial = run_sweep(
            [TinyApp()], grid=SMALL_GRID, jobs=1, seed=0,
            fault_plan=FAULTY_PLAN,
        )
        plane = run_sweep(
            [TinyApp()], grid=SMALL_GRID, jobs=2, seed=0,
            fault_plan=FAULTY_PLAN, shared_plane=True,
        )
        assert _row_signature(serial) == _row_signature(plane)

    def test_lost_plane_degrades_to_private_not_failure(self, machine):
        """A worker that finds the plane gone falls back to a private
        profile run — the cell's row is identical, only the counter
        tells the story."""
        from repro.parallel.sweep import _execute_cell
        from repro.pipeline.metrics import StageMetrics
        from repro.trace.shared import SharedTracePlane
        from repro.trace.tracer import TracerConfig

        app = TinyApp()
        cell = enumerate_cells(app, SMALL_GRID)[0]
        framework_profile = app.run_profiling(
            seed=0,
            tracer_config=TracerConfig(
                sampling_period=app.sampling_period, columnar_samples=True
            ),
        )
        plane = SharedTracePlane()
        handle = plane.publish(
            "gone-plane",
            framework_profile.tracer.columnar_trace(),
            framework_profile.ground_truth,
        )
        plane.close()  # the plane vanishes before the worker attaches

        row, error, category, metrics = _execute_cell(
            app, machine, cell, 0, {}, None, 1, plane=handle
        )
        assert error is None and category is None
        counters = StageMetrics.from_dict(metrics)
        assert counters.count("plane_fallback") == 1
        assert counters.count("plane_attach") == 0

        private_row, _, _, _ = _execute_cell(
            app, machine, cell, 0, {}, None, 1
        )
        assert row == private_row

    def test_shared_plane_composes_with_result_cache(self, tmp_path):
        cold = run_sweep(
            [TinyApp()], grid=SMALL_GRID, jobs=2, seed=0,
            shared_plane=True, cache_dir=tmp_path,
        )
        assert cold.metrics.count("plane_publish") == 1
        warm = run_sweep(
            [TinyApp()], grid=SMALL_GRID, jobs=2, seed=0,
            shared_plane=True, cache_dir=tmp_path,
        )
        # Fully warm: nothing pending, so no plane is even published.
        assert warm.metrics.total_stage_executions == 0
        assert warm.metrics.count("cache_hit") == 8
        assert warm.metrics.count("plane_publish") == 0

    def test_supervised_sweep_uses_the_plane(self, tiny_app):
        serial = run_figure4_experiment(tiny_app, grid=SMALL_GRID, seed=0)
        sweep = run_sweep(
            [tiny_app], grid=SMALL_GRID, jobs=2, seed=0,
            cell_deadline=60.0, shared_plane=True,
        )
        assert not sweep.failures
        assert sweep.metrics.count("plane_publish") == 1
        assert sweep.metrics.count("plane_attach") >= 1
        assert sweep.experiment(tiny_app).grid == serial.grid

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"plane_backend": ""},
            {"plane_backend": "SHM"},
            {"plane_backend": "carrier-pigeon"},
        ],
    )
    def test_rejects_bad_plane_knobs(self, kwargs):
        with pytest.raises(ConfigError):
            SweepConfig(**kwargs)


class TestBatchSizing:
    def test_timeout_pins_batches_to_single_cells(self):
        executor = SweepExecutor(
            config=SweepConfig(jobs=4, timeout_seconds=1.0)
        )
        assert executor._batch_size(100, 4) == 1
        executor = SweepExecutor(
            config=SweepConfig(jobs=4, cell_deadline=1.0)
        )
        assert executor._batch_size(100, 4) == 1

    def test_in_process_runs_single_cells(self):
        executor = SweepExecutor(config=SweepConfig(jobs=1))
        assert executor._batch_size(100, 1) == 1

    def test_auto_targets_four_batches_per_worker(self):
        executor = SweepExecutor(config=SweepConfig(jobs=4))
        assert executor._batch_size(8, 4) == 1
        assert executor._batch_size(64, 4) == 4
        assert executor._batch_size(10_000, 4) == 32  # capped


class TestWorkerMemoEviction:
    def test_memo_never_exceeds_cap(self, machine):
        from repro.parallel.sweep import (
            _WORKER_MEMO_CAP,
            _execute_cell,
        )

        classes = [
            type(f"MemoApp{i}", (TinyApp,), {"name": f"memoapp{i}"})
            for i in range(_WORKER_MEMO_CAP + 2)
        ]
        memo: dict = {}
        evictions, peak = 0, 0
        for cls in classes:
            app = cls()
            cell = enumerate_cells(app, SMALL_GRID)[0]
            row, error, _, metrics = _execute_cell(
                app, machine, cell, 0, memo
            )
            assert error is None
            from repro.pipeline.metrics import StageMetrics

            evictions += StageMetrics.from_dict(metrics).count(
                "framework_evicted"
            )
            peak = max(peak, len(memo))
        assert peak <= _WORKER_MEMO_CAP
        assert evictions == 2

    def test_lru_order_evicts_coldest_first(self):
        from repro.parallel.sweep import (
            _WORKER_MEMO_CAP,
            _memo_get,
            _memo_put,
        )

        memo: dict = {}
        for i in range(_WORKER_MEMO_CAP):
            _memo_put(memo, ("app", i), object())
        assert _memo_get(memo, ("app", 0)) is not None  # refresh 0
        evicted = _memo_put(memo, ("app", _WORKER_MEMO_CAP), object())
        assert evicted == 1
        assert ("app", 0) in memo  # refreshed entry survived
        assert ("app", 1) not in memo  # coldest entry went

    def test_evicted_framework_is_rebuilt_not_failed(self, machine):
        """A sweep touching more apps than the cap still answers every
        cell — eviction only costs a re-profile."""
        classes = [
            type(f"WideApp{i}", (TinyApp,), {"name": f"wideapp{i}"})
            for i in range(6)
        ]
        sweep = run_sweep(
            [cls() for cls in classes],
            grid=ExperimentGrid(budgets=(32 * MIB,), strategies=("density",)),
            jobs=1,
            seed=0,
        )
        assert not sweep.failures
        assert len(sweep.outcomes) == 6 * 5


class ExitingApp(TinyApp):
    """Raises SystemExit from the workload (a sys.exit()-ing app)."""

    name = "exitingapp"

    def run_profiling(self, seed=0, tracer_config=None):
        raise SystemExit(3)


class TestControlFlowSignals:
    """KeyboardInterrupt/SystemExit are control flow, not cell
    failures — they must unwind instead of being classified and
    retried as transient faults."""

    def test_system_exit_escapes_execute_cell(self, machine):
        from repro.parallel.sweep import _execute_cell

        app = ExitingApp()
        cell = enumerate_cells(app, SMALL_GRID)[0]
        with pytest.raises(SystemExit):
            _execute_cell(app, machine, cell, seed=0, frameworks={})

    def test_system_exit_escapes_serial_sweep(self):
        with pytest.raises(SystemExit):
            run_sweep([ExitingApp()], grid=SMALL_GRID, jobs=1, seed=0)

    def test_system_exit_in_a_worker_is_a_crashed_worker(self):
        """In a worker process SystemExit ends the worker: its cells
        are requeued, then aborted — the parent sweep carries on."""
        sweep = run_sweep(
            [ExitingApp()], grid=FIVE_CELLS, jobs=2, seed=0,
            requeue_budget=1,
        )
        assert len(sweep.failures) == 5
        assert all("worker died" in o.error for o in sweep.failures)
        assert sweep.metrics.count("requeue") == 5
        assert sweep.metrics.count("worker_crash") == 10
