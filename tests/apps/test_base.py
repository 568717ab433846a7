"""SimApplication mechanics on the TinyApp fixture."""

import numpy as np
import pytest

from repro.apps.base import AccessPattern, ObjectSpec, SimApplication
from repro.errors import WorkloadError
from repro.interpose.autohbw import AutoHBW
from repro.units import MIB


class TestValidation:
    def test_empty_inventory_rejected(self):
        class Empty(SimApplication):
            objects = ()

        with pytest.raises(WorkloadError):
            Empty()

    def test_churn_phase_must_exist(self, tiny_app):
        class Bad(type(tiny_app)):
            objects = tiny_app.objects[:2] + (
                ObjectSpec(
                    name="ghost",
                    callstack=(("f", 1),),
                    size=MIB,
                    churn_phase="no_such_phase",
                    miss_weight=0.1,
                ),
            )

        with pytest.raises(WorkloadError):
            Bad()

    def test_object_spec_validation(self):
        with pytest.raises(WorkloadError):
            ObjectSpec(name="x", callstack=(), size=1)  # dynamic, no stack
        with pytest.raises(WorkloadError):
            ObjectSpec(name="x", callstack=(("f", 1),), size=0)
        with pytest.raises(WorkloadError):
            AccessPattern(kind="zigzag")
        with pytest.raises(WorkloadError):
            AccessPattern(hot_fraction=0.0)
        with pytest.raises(WorkloadError):
            AccessPattern(reref_per_iteration=0.0)


class TestDerived:
    def test_footprint_counts_persistent_plus_churn_peak(self, tiny_app):
        # 100 + 20 persistent + 30 static + 10 churn peak
        assert tiny_app.footprint_real == 160 * MIB

    def test_mcdram_share(self, tiny_app):
        assert tiny_app.mcdram_share_real == 256 * MIB

    def test_hot_footprint(self, tiny_app):
        # 100 + 20 + 10 + 30*0.5
        assert tiny_app.hot_footprint_real == 145 * MIB

    def test_scaled_floor_is_page(self, tiny_app):
        assert tiny_app.scaled(1) == 4096

    def test_site_key_includes_main_root(self, tiny_app):
        key = tiny_app.site_key(tiny_app.find_object("big_matrix"))
        assert key[-1] == ("main", "tinyapp.c", 1)
        assert key[0] == ("alloc_matrix", "tinyapp.c", 3)

    def test_site_key_static_rejected(self, tiny_app):
        with pytest.raises(WorkloadError):
            tiny_app.site_key(tiny_app.find_object("lookup_table"))

    def test_find_object_missing(self, tiny_app):
        with pytest.raises(WorkloadError):
            tiny_app.find_object("nope")


class TestModules:
    def test_functions_cover_callstacks_and_phases(self, tiny_app):
        image = tiny_app.build_modules()[0]
        names = {f.name for f in image.functions}
        assert {"main", "setup", "alloc_matrix", "kernel",
                "compute", "exchange"} <= names


class TestProfilingRun:
    def test_ground_truth_totals(self, tiny_profiling):
        truth = tiny_profiling.ground_truth
        assert truth.total_misses > 0
        assert truth.addresses.size == truth.total_misses
        assert truth.times.size == truth.total_misses
        assert sum(truth.misses_by_site.values()) == truth.total_misses

    def test_miss_shares_follow_weights(self, tiny_profiling):
        truth = tiny_profiling.ground_truth
        # hot_vector weight .6 of .95 heap share (stack 5%).
        assert truth.miss_share("hot_vector") == pytest.approx(0.57, abs=0.05)
        assert truth.miss_share("<stack>") == pytest.approx(0.05, abs=0.02)

    def test_times_monotone_envelope(self, tiny_profiling):
        times = tiny_profiling.ground_truth.times
        assert float(times.min()) >= 0.0
        assert float(times.max()) <= 100.0

    def test_trace_has_allocations_and_samples(self, tiny_profiling):
        trace = tiny_profiling.trace.to_tracefile()
        assert len(trace.alloc_events) > 0
        assert len(trace.sample_events) > 0
        assert len(trace.phase_events) > 0
        assert trace.statics[0].name == "lookup_table"

    def test_churn_produces_alloc_free_pairs(self, tiny_profiling):
        trace = tiny_profiling.trace.to_tracefile()
        assert len(trace.free_events) >= 5  # one per iteration

    def test_sample_count_matches_period(self, tiny_profiling):
        truth = tiny_profiling.ground_truth
        n_samples = tiny_profiling.trace.n_samples
        assert n_samples == pytest.approx(truth.total_misses / 5, rel=0.02)

    def test_deterministic(self, tiny_app):
        a = tiny_app.run_profiling(seed=1)
        b = type(tiny_app)().run_profiling(seed=1)
        assert np.array_equal(a.ground_truth.addresses,
                              b.ground_truth.addresses)

    def test_seeds_differ(self, tiny_app):
        a = tiny_app.run_profiling(seed=1)
        b = type(tiny_app)().run_profiling(seed=2)
        assert not np.array_equal(a.ground_truth.addresses,
                                  b.ground_truth.addresses)


class TestReplay:
    def test_ddr_replay_places_everything_posix(self, tiny_app):
        replay = tiny_app.replay_with_hook(None)
        assert replay.hbw_hwm_bytes == 0
        served = {a for served in replay.placements.values() for a in served}
        assert served <= {"posix", "static"}

    def test_churn_site_has_one_instance_per_iteration(self, tiny_app):
        replay = tiny_app.replay_with_hook(None)
        assert len(replay.placements["scratch"]) == tiny_app.n_iterations

    def test_hook_replay_promotes(self, tiny_app):
        replay = tiny_app.replay_with_hook(
            lambda process: AutoHBW(process, min_size=0)
        )
        assert replay.promoted_fraction("hot_vector", "memkind-hbw") == 1.0
        assert replay.hbw_hwm_bytes > 0

    def test_overhead_scaled_by_multiplier(self, tiny_app):
        class Multiplied(type(tiny_app)):
            alloc_count_multiplier = 10.0

        base = tiny_app.replay_with_hook(
            lambda process: AutoHBW(process, min_size=0)
        )
        scaled = Multiplied().replay_with_hook(
            lambda process: AutoHBW(process, min_size=0)
        )
        assert scaled.alloc_overhead_seconds == pytest.approx(
            10 * base.alloc_overhead_seconds
        )
