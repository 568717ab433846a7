"""Every Table I application model: structural invariants.

These tests pin the calibration data to the paper's Table I: per-rank
footprints (HWM), geometries, sample counts, FOM baselines, and the
app-specific mechanisms DESIGN.md documents.
"""

import pytest

from repro.apps import APP_NAMES, get_app, iter_apps
from repro.errors import WorkloadError
from repro.units import GIB, MIB

#: Table I "Memory used-HWM (MB/process)".
TABLE1_HWM_MB = {
    "hpcg": 928,
    "lulesh": 859,
    "nas-bt": 11136,
    "minife": 1022,
    "cgpop": 158,
    "snap": 1022,
    "maxw-dgtd": 285,
    "gtc-p": 1329,
}

#: Table I "Number of samples/process".
TABLE1_SAMPLES = {
    "hpcg": 13629,
    "lulesh": 3201,
    "nas-bt": 38215,
    "minife": 3194,
    "cgpop": 8258,
    "snap": 3194,
    "maxw-dgtd": 2072,
    "gtc-p": 17254,
}


class TestRegistry:
    def test_eight_applications(self):
        assert len(APP_NAMES) == 8

    def test_table1_order(self):
        assert APP_NAMES == (
            "hpcg", "lulesh", "nas-bt", "minife",
            "cgpop", "snap", "maxw-dgtd", "gtc-p",
        )

    def test_unknown_rejected(self):
        with pytest.raises(WorkloadError):
            get_app("hpl")

    def test_iter_apps_yields_fresh_instances(self):
        a = list(iter_apps())
        b = list(iter_apps())
        assert a[0] is not b[0]


@pytest.mark.parametrize("name", APP_NAMES)
class TestPerApp:
    def test_instantiates(self, name):
        app = get_app(name)
        assert app.name == name

    def test_footprint_matches_table1(self, name):
        app = get_app(name)
        expected = TABLE1_HWM_MB[name] * MIB
        assert app.footprint_real == pytest.approx(expected, rel=0.12)

    def test_sample_budget_matches_table1(self, name):
        app = get_app(name)
        expected = TABLE1_SAMPLES[name]
        assert app.stream_misses / app.sampling_period == pytest.approx(
            expected, rel=0.12
        )

    def test_phase_fractions_sum_to_one(self, name):
        app = get_app(name)
        assert sum(p.duration_fraction for p in app.phases) == pytest.approx(
            1.0
        )

    def test_weights_positive_mass(self, name):
        app = get_app(name)
        assert sum(o.miss_weight for o in app.objects) > 0.5

    def test_callstacks_unique_per_site(self, name):
        app = get_app(name)
        keys = [
            app.site_key(o) for o in app.objects if not o.static
        ]
        assert len(keys) == len(set(keys))

    def test_mcdram_share(self, name):
        app = get_app(name)
        assert app.mcdram_share_real == 16 * GIB // app.geometry.ranks

    def test_profiles_quickly_and_deterministically(self, name):
        app = get_app(name)
        run = app.run_profiling(seed=0)
        assert run.ground_truth.total_misses > 1000
        assert run.trace.n_allocs > 0


class TestAppSpecificMechanisms:
    def test_bt_is_single_process(self):
        assert get_app("nas-bt").geometry.ranks == 1

    def test_bt_fits_mcdram(self):
        """BT's whole working set fits the 16 GB MCDRAM — that is why
        numactl wins there."""
        app = get_app("nas-bt")
        assert app.footprint_real < 16 * GIB

    def test_snap_has_one_large_buffer(self):
        app = get_app("snap")
        big = [o for o in app.objects if o.size >= 200 * MIB and o.miss_weight > 0.2]
        assert len(big) == 1  # the 248 MB angular flux

    def test_snap_stack_heavy(self):
        """Register spills in outer_src_calc land on the stack."""
        assert get_app("snap").stack_miss_fraction >= 0.10

    def test_lulesh_churn_exceeds_any_budget(self):
        """Summed churn max sizes > 256 MB although the instantaneous
        footprint is one phase's worth (the advisor blind spot)."""
        app = get_app("lulesh")
        churn = [o for o in app.objects if o.churn]
        assert sum(o.size for o in churn) > 256 * MIB
        by_phase = {}
        for o in churn:
            by_phase[o.churn_phase] = by_phase.get(o.churn_phase, 0) + o.size
        assert max(by_phase.values()) < 256 * MIB

    def test_lulesh_has_memkind_slow_path_transients(self):
        app = get_app("lulesh")
        tiny = [o for o in app.objects if MIB <= o.size < 2 * MIB and o.churn]
        assert len(tiny) >= 10

    def test_cgpop_critical_set_fits_smallest_budget(self):
        """The converted arrays fit in 32 MB/rank, so all budget
        columns look alike."""
        app = get_app("cgpop")
        critical = [o for o in app.objects
                    if not o.static and o.miss_weight >= 0.1]
        assert sum(o.size for o in critical) <= 32 * MIB

    def test_cgpop_has_leftover_statics(self):
        statics = [o for o in get_app("cgpop").objects if o.static]
        assert len(statics) >= 2

    def test_gtcp_grids_denser_than_particles(self):
        app = get_app("gtc-p")
        grids = [o for o in app.objects if "grid" in o.name]
        particles = [o for o in app.objects if "particle" in o.name]
        min_grid = min(o.miss_weight / o.size for o in grids)
        max_particle = max(o.miss_weight / (o.size * o.count)
                           for o in particles)
        assert min_grid > max_particle

    def test_hpcg_two_critical_objects(self):
        """Paper: HPCG peaks by placing 2 data objects in fast memory."""
        app = get_app("hpcg")
        critical = sorted(app.objects, key=lambda o: o.miss_weight,
                          reverse=True)[:2]
        assert sum(o.miss_weight for o in critical) >= 0.85
        assert sum(o.size for o in critical) <= 256 * MIB

    def test_minife_three_small_critical_objects(self):
        app = get_app("minife")
        critical = [
            o for o in app.objects
            if o.miss_weight >= 0.15 and o.size <= 64 * MIB
        ]
        assert len(critical) == 3
        assert sum(o.size for o in critical) <= 128 * MIB
