"""The online re-advising daemon: determinism, lag, scoring."""

import os
import subprocess
import sys

import pytest

from repro.apps.registry import get_app
from repro.errors import ConfigError
from repro.online import (
    OnlineConfig,
    evaluate_one_shot,
    evaluate_online,
    run_online,
    windowed_cost,
)
from repro.pipeline.framework import HybridMemoryFramework
from repro.units import MIB

BUDGET = 32 * MIB


@pytest.fixture(scope="module")
def phaseshift_fw():
    return HybridMemoryFramework(get_app("phaseshift"))


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window_seconds": 0.0},
            {"n_windows": 0},
            {"confirm_windows": 0},
            {"migration_bandwidth": 0.0},
            {"decision_deadline_seconds": 0.0},
            {"migration_retries": -1},
            {"migration_backoff_seconds": -0.1},
            {"migration_error_budget": -1},
            {"migration_circuit_threshold": 0},
            {"window_pause_seconds": -1.0},
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ConfigError):
            OnlineConfig(**kwargs)

    def test_window_seconds_and_n_windows_are_mutually_exclusive(self):
        """Both knobs cut the same run; setting both is a
        contradiction, not a preference order."""
        with pytest.raises(ConfigError, match="pick one"):
            OnlineConfig(window_seconds=5.0, n_windows=8)
        # Each alone is fine (default n_windows does not conflict).
        OnlineConfig(window_seconds=5.0)
        OnlineConfig(n_windows=8)


class TestDaemon:
    def test_deterministic_journal(self, phaseshift_fw):
        first = run_online(phaseshift_fw, BUDGET)
        second = run_online(phaseshift_fw, BUDGET)
        assert first.journal_lines() == second.journal_lines()
        assert first.migrated_bytes_real == second.migrated_bytes_real

    def test_decision_lag_one_window(self, phaseshift_fw):
        """A decision at the end of window w is in force during w+1:
        window 0 always executes with the cold (empty) placement."""
        run = run_online(phaseshift_fw, BUDGET)
        assert run.schedule[0][2] == frozenset()
        assert run.schedule[1][2] == frozenset(run.decisions[0].applied)

    def test_tracks_the_phase_shift(self, phaseshift_fw):
        """The daemon promotes hot_red in regime A, then migrates to
        hot_black after the mid-run shift."""
        app = phaseshift_fw.app
        run = run_online(phaseshift_fw, BUDGET)
        before = run.active_sites(app.shift_time * 0.5)
        after = run.active_sites(
            (app.shift_time + app.calibration.ddr_time) / 2.0
        )
        assert before == frozenset({"hot_red"})
        assert after == frozenset({"hot_black"})
        demoted = [a.site for a in run.actions if a.direction == "demote"]
        assert demoted == ["hot_red"]

    def test_migrated_bytes_are_real_sizes(self, phaseshift_fw):
        app = phaseshift_fw.app
        run = run_online(phaseshift_fw, BUDGET)
        size = app.find_object("hot_red").size
        # promote red + (promote black, demote red) at the shift
        assert run.migrated_bytes_real == 3 * size

    def test_hysteresis_delays_first_promotion(self, phaseshift_fw):
        eager = run_online(phaseshift_fw, BUDGET)
        damped = run_online(
            phaseshift_fw, BUDGET, OnlineConfig(confirm_windows=3)
        )
        first_eager = min(a.window for a in eager.actions)
        first_damped = min(a.window for a in damped.actions)
        assert first_damped == first_eager + 2


class TestScoring:
    def test_online_beats_one_shot_on_phase_shift(self, phaseshift_fw):
        """The ISSUE acceptance criterion: at equal MCDRAM budget the
        online mode's FOM beats the one-shot placement on the
        phase-shifting app, with migration cost charged."""
        run = run_online(phaseshift_fw, BUDGET)
        assert run.migrated_bytes_real > 0  # the cost is really in play
        online = evaluate_online(phaseshift_fw, run)
        one_shot = evaluate_one_shot(phaseshift_fw, BUDGET)
        assert online.fom > one_shot.fom

    def test_migration_cost_charged(self, phaseshift_fw):
        """The same schedule scored with a slower migration path must
        cost more time."""
        run = run_online(phaseshift_fw, BUDGET)
        fast_path = evaluate_online(phaseshift_fw, run)
        slow = windowed_cost(
            phaseshift_fw.app,
            phaseshift_fw.machine,
            phaseshift_fw.profile(),
            run.schedule,
            migrated_bytes_real=run.migrated_bytes_real,
            migration_bandwidth=run.config.migration_bandwidth / 1000.0,
        )
        assert slow.total_time > fast_path.total_time
        assert slow.memory_time - fast_path.memory_time == pytest.approx(
            run.migrated_bytes_real
            * (1000.0 - 1.0)
            / run.config.migration_bandwidth
        )

    def test_one_shot_on_steady_app_matches_online(self):
        """On an app with a stable hot set the daemon converges to the
        one-shot placement; the only FOM difference is the cold first
        window plus migration cost (online can never win here)."""
        fw = HybridMemoryFramework(get_app("cgpop"))
        run = run_online(fw, BUDGET)
        online = evaluate_online(fw, run)
        one_shot = evaluate_one_shot(fw, BUDGET)
        assert online.fom <= one_shot.fom
        assert online.fom >= one_shot.fom * 0.9  # but only slightly

    def test_requires_window_truth(self, phaseshift_fw):
        from dataclasses import replace

        from repro.apps.base import GroundTruth

        profiling = phaseshift_fw.profile()
        bare = replace(profiling, ground_truth=GroundTruth())
        with pytest.raises(ConfigError):
            windowed_cost(
                phaseshift_fw.app, phaseshift_fw.machine, bare, []
            )

    def test_rejects_zero_length_truth_window(self, phaseshift_fw):
        """A [t, t) truth window has no midpoint on the schedule; its
        misses would be silently misattributed — refuse instead."""
        from dataclasses import replace

        profiling = phaseshift_fw.profile()
        truth = profiling.ground_truth
        degenerate = replace(
            truth.windows[0], t1=truth.windows[0].t0
        )
        broken = replace(
            profiling,
            ground_truth=replace(
                truth, windows=(degenerate, *truth.windows[1:])
            ),
        )
        with pytest.raises(ConfigError, match="zero-length"):
            windowed_cost(
                phaseshift_fw.app,
                phaseshift_fw.machine,
                broken,
                [(0.0, 1.0, frozenset())],
            )


class TestFrameworkWindowedMode:
    def test_run_windowed_outcome(self, phaseshift_fw):
        outcome = phaseshift_fw.run_windowed(BUDGET)
        assert outcome.online_fom == pytest.approx(
            evaluate_online(phaseshift_fw, outcome.run).fom
        )
        assert outcome.improvement > 0.0
        assert len(outcome.run.decisions) == OnlineConfig().n_windows


class TestHashSeedIndependence:
    def test_lulesh_journal_same_under_two_hash_seeds(self, tmp_path):
        """lulesh's node_velocities and node_forces tie on (misses,
        size) in some windows; the decisions must not follow the
        order of Python's hash-seeded sets."""
        code = (
            "import sys; from repro.cli.main import online_main; "
            "sys.exit(online_main())"
        )
        journals = []
        for hash_seed in ("0", "1"):
            path = tmp_path / f"lulesh-{hash_seed}.journal"
            result = subprocess.run(
                [
                    sys.executable, "-c", code, "lulesh",
                    "--budget", "128M", "--seed", "0",
                    "--journal", str(path),
                ],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONHASHSEED": hash_seed},
            )
            assert result.returncode == 0, result.stderr
            journals.append(path.read_bytes())
        assert journals[0] == journals[1]
        assert len(journals[0]) > 0
