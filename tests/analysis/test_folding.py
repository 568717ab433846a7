"""Folding-style time binning (Figure 5 substrate)."""

import pytest

from repro.errors import TraceError
from repro.analysis.folding import fold_trace
from repro.apps import get_app
from repro.trace.events import PhaseEvent, SampleEvent
from repro.trace.tracefile import TraceFile


def _trace():
    trace = TraceFile(application="snap")
    # Two iterations of outer_src_calc -> octsweep.
    for it in range(2):
        t0 = it * 10.0
        trace.append(PhaseEvent(t0, 0, "outer_src_calc"))
        trace.append(PhaseEvent(t0 + 3.0, 0, "octsweep"))
        for k in range(5):
            trace.append(SampleEvent(t0 + k * 2.0 + 0.5, 0, 0x1000 + k))
    return trace


class TestFolding:
    def test_needs_phases(self):
        with pytest.raises(TraceError):
            fold_trace(TraceFile(), n_bins=4)

    def test_bin_count_and_span(self):
        timeline = fold_trace(_trace(), n_bins=10, t_start=0.0, t_end=20.0)
        assert len(timeline.bins) == 10
        assert timeline.bins[0].t0 == 0.0
        assert timeline.bins[-1].t1 == pytest.approx(20.0)

    def test_function_attribution(self):
        timeline = fold_trace(_trace(), n_bins=20, t_start=0.0, t_end=20.0)
        # Bin covering t=1 is outer_src_calc; bin covering t=5 is octsweep.
        by_mid = {round(b.midpoint, 1): b.function for b in timeline.bins}
        assert by_mid[0.5] == "outer_src_calc"
        assert by_mid[4.5] == "octsweep"

    def test_samples_land_in_bins(self):
        timeline = fold_trace(_trace(), n_bins=4, t_start=0.0, t_end=20.0)
        total = sum(len(b.addresses) for b in timeline.bins)
        assert total == 10

    def test_mips_annotation(self):
        timeline = fold_trace(
            _trace(), n_bins=4, t_start=0.0, t_end=20.0,
            mips_by_function={"outer_src_calc": 400.0, "octsweep": 1200.0},
        )
        mips = {b.function: b.mips for b in timeline.bins}
        assert mips["outer_src_calc"] == 400.0
        assert mips["octsweep"] == 1200.0

    def test_min_mips_by_function(self):
        timeline = fold_trace(
            _trace(), n_bins=4, t_start=0.0, t_end=20.0,
            mips_by_function={"outer_src_calc": 400.0, "octsweep": 1200.0},
        )
        mins = timeline.min_mips_by_function()
        assert mins["outer_src_calc"] == 400.0

    def test_functions_in_first_seen_order(self):
        timeline = fold_trace(_trace(), n_bins=10, t_start=0.0, t_end=20.0)
        assert timeline.functions == ["outer_src_calc", "octsweep"]

    def test_empty_window_rejected(self):
        with pytest.raises(TraceError):
            fold_trace(_trace(), n_bins=4, t_start=5.0, t_end=5.0)

    def test_series_accessors(self):
        timeline = fold_trace(_trace(), n_bins=4, t_start=0.0, t_end=20.0)
        assert len(timeline.mips_series()) == 4
        assert len(timeline.function_series()) == 4


def _fold_rows(trace, n_bins, t_start, t_end):
    """Reference: bin the row-oriented export event by event."""
    phases = sorted(trace.phase_events, key=lambda e: e.time)
    samples = sorted(trace.sample_events, key=lambda e: e.time)
    width = (t_end - t_start) / n_bins
    bins = []
    for i in range(n_bins):
        t0 = t_start + i * width
        t1 = t0 + width
        active = [p for p in phases if p.time <= t0 + width / 2]
        function = (active[-1] if active else phases[0]).function
        addresses = tuple(s.address for s in samples if t0 <= s.time < t1)
        bins.append((t0, t1, function, addresses))
    return bins


class TestColumnarInput:
    def test_snap_columns_fold_like_rows(self):
        app = get_app("snap")
        trace = app.run_profiling(seed=0).trace
        t0 = app.calibration.ddr_time * app.init_fraction
        t1 = t0 + 4 * (app.calibration.ddr_time - t0) / app.n_iterations
        timeline = fold_trace(trace, n_bins=80, t_start=t0, t_end=t1)
        assert [
            (b.t0, b.t1, b.function, b.addresses) for b in timeline.bins
        ] == _fold_rows(trace.to_tracefile(), 80, t0, t1)
        assert timeline == fold_trace(
            trace.to_tracefile(), n_bins=80, t_start=t0, t_end=t1
        )
        assert sum(len(b.addresses) for b in timeline.bins) > 100
