"""Trace-replay prediction (Section V future work)."""

import numpy as np
import pytest

from repro._oracles import predict_share_reference
from repro.advisor.report import PlacementEntry, PlacementReport
from repro.analysis.objects import ObjectKey, ObjectKind
from repro.analysis.profile import ObjectProfile, ProfileSet
from repro.errors import AdvisorError
from repro.pipeline.framework import HybridMemoryFramework
from repro.placement.policies import run_framework
from repro.predict.replay import PredictorCalibration, TraceReplayPredictor
from repro.units import KIB, MIB


@pytest.fixture()
def predictor(tiny_app, machine):
    cal = tiny_app.calibration
    return TraceReplayPredictor(
        machine,
        PredictorCalibration(
            fom_ddr=cal.fom_ddr,
            ddr_time=cal.ddr_time,
            memory_bound_fraction=cal.memory_bound_fraction,
        ),
    )


class TestPrediction:
    def test_ddr_prediction_anchors(self, tiny_app, machine, predictor):
        fw = HybridMemoryFramework(tiny_app, machine)
        outcome = predictor.predict_ddr(fw.analyze())
        assert outcome.fom == pytest.approx(tiny_app.calibration.fom_ddr,
                                            rel=0.02)
        assert outcome.promoted_miss_share == 0.0

    def test_prediction_matches_reexecution(self, tiny_app, machine,
                                            predictor):
        """For a churn-light application the prediction should land
        within a few percent of the actual placed run."""
        fw = HybridMemoryFramework(tiny_app, machine)
        report = fw.advise(128 * MIB, "misses-0%")
        predicted = predictor.predict(fw.analyze(), report)
        actual = run_framework(
            tiny_app, machine, fw.profile(), report, budget_real=128 * MIB
        )
        assert predicted.fom == pytest.approx(actual.fom, rel=0.05)

    def test_prediction_from_raw_trace(self, tiny_app, machine, predictor):
        fw = HybridMemoryFramework(tiny_app, machine)
        report = fw.advise(128 * MIB, "misses-0%")
        from_profiles = predictor.predict(fw.analyze(), report)
        from_trace = predictor.predict(fw.profile().trace, report)
        assert from_trace.fom == pytest.approx(from_profiles.fom)

    def test_prediction_from_row_trace(self, tiny_app, machine, predictor):
        """The JSONL-codec form predicts like the columnar profile."""
        fw = HybridMemoryFramework(tiny_app, machine)
        report = fw.advise(128 * MIB, "misses-0%")
        from_profiles = predictor.predict(fw.analyze(), report)
        rows = fw.profile().trace.to_tracefile()
        assert predictor.predict(rows, report).fom == pytest.approx(
            from_profiles.fom
        )
        assert predictor.predict_tiered(rows, report).fom == pytest.approx(
            predictor.predict_tiered(fw.analyze(), report).fom
        )

    def test_monotone_in_selection(self, tiny_app, machine, predictor):
        fw = HybridMemoryFramework(tiny_app, machine)
        profiles = fw.analyze()
        small = predictor.predict(profiles, fw.advise(32 * MIB, "misses-0%"))
        big = predictor.predict(profiles, fw.advise(256 * MIB, "misses-0%"))
        assert big.fom >= small.fom
        assert big.promoted_miss_share >= small.promoted_miss_share

    def test_sweep(self, tiny_app, machine, predictor):
        fw = HybridMemoryFramework(tiny_app, machine)
        profiles = fw.analyze()
        reports = {
            f"{b // MIB}M": fw.advise(b, "density")
            for b in (32 * MIB, 64 * MIB, 128 * MIB)
        }
        outcomes = predictor.sweep(profiles, reports)
        assert set(outcomes) == set(reports)

    def test_empty_profiles_rejected(self, predictor):
        from repro.analysis.profile import ProfileSet

        with pytest.raises(AdvisorError):
            predictor.predict(
                ProfileSet(), PlacementReport(application="", strategy="")
            )


class TestPartialPlacementPrediction:
    def test_partial_beats_whole_object_when_nothing_fits(
        self, tiny_app, machine, predictor
    ):
        """Section V: when the hot object does not fit whole, placing
        its critical portion still helps — visible to the predictor."""
        fw = HybridMemoryFramework(tiny_app, machine)
        profiles = fw.analyze()
        from repro.advisor.advisor import HmemAdvisor
        from repro.advisor.strategies import MissesStrategy

        # 8 MB budget: hot_vector (20 MB) does not fit whole.
        advisor = HmemAdvisor(fw.memory_spec(8 * MIB))
        whole = advisor.advise(profiles, MissesStrategy())
        partial = advisor.advise(profiles, MissesStrategy(),
                                 allow_partial=True)
        assert any(e.fraction < 1.0 for e in partial.entries)
        p_whole = predictor.predict(profiles, whole)
        p_partial = predictor.predict(profiles, partial)
        assert p_partial.fom > p_whole.fom

    def test_partial_entries_round_trip(self, tiny_app, machine, tmp_path):
        fw = HybridMemoryFramework(tiny_app, machine)
        from repro.advisor.advisor import HmemAdvisor
        from repro.advisor.strategies import MissesStrategy

        advisor = HmemAdvisor(fw.memory_spec(8 * MIB))
        report = advisor.advise(fw.analyze(), MissesStrategy(),
                                allow_partial=True)
        path = tmp_path / "partial.report"
        report.save(path)
        clone = PlacementReport.load(path)
        assert clone.entries == report.entries

    def test_interposer_ignores_partial_entries(self, tiny_app, machine):
        """auto-hbwmalloc cannot split an object: partial entries are
        not matched at run time (the paper's real-world constraint)."""
        fw = HybridMemoryFramework(tiny_app, machine)
        from repro.advisor.advisor import HmemAdvisor
        from repro.advisor.strategies import MissesStrategy

        advisor = HmemAdvisor(fw.memory_spec(8 * MIB))
        report = advisor.advise(fw.analyze(), MissesStrategy(),
                                allow_partial=True)
        partial_keys = {
            e.key.identity for e in report.entries if e.fraction < 1.0
        }
        assert partial_keys
        assert report.selected_keys("MCDRAM").isdisjoint(partial_keys)


def _synthetic_profiles(n_objects: int, seed: int):
    """``n_objects`` dynamic objects with random misses and sizes; every
    other one promoted, alternately whole and half (``fraction=0.5``)."""
    rng = np.random.default_rng(seed)
    misses = rng.integers(1, 1000, size=n_objects)
    sizes = rng.integers(4 * KIB, 4 * MIB, size=n_objects)
    profiles = ProfileSet(
        profiles=[
            ObjectProfile(
                key=ObjectKey(
                    kind=ObjectKind.DYNAMIC,
                    identity=((f"alloc_{i}", "synthetic.c", i),),
                ),
                sampled_misses=int(misses[i]),
                size=int(sizes[i]),
                sampled_latency=int(misses[i]) * 300,
            )
            for i in range(n_objects)
        ],
        stack_samples=17,
        unresolved_samples=5,
    )
    report = PlacementReport(application="synthetic", strategy="density")
    for i in range(0, n_objects, 2):
        report.entries.append(
            PlacementEntry(
                key=profiles.profiles[i].key,
                tier="MCDRAM",
                size=int(sizes[i]),
                sampled_misses=int(misses[i]),
                fraction=1.0 if i % 4 else 0.5,
            )
        )
    return profiles, report


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_promoted_share_matches_scalar_oracle(machine, seed):
    """The vectorised share equals the per-object loop it replaced, on
    whole and half-promoted entries alike."""
    profiles, report = _synthetic_profiles(400, seed)
    assert {e.fraction for e in report.entries} == {0.5, 1.0}
    predictor = TraceReplayPredictor(
        machine,
        PredictorCalibration(
            fom_ddr=1000.0, ddr_time=10.0, memory_bound_fraction=0.6
        ),
    )
    share = predictor.predict(profiles, report).promoted_miss_share
    assert abs(share - predict_share_reference(profiles, report)) <= 1e-9
