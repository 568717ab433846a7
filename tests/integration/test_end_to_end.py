"""Integration: the full four-stage flow, file round-trips included,
plus the paper-level qualitative claims on the real application models.
"""

import pytest

from repro import HybridMemoryFramework, get_app
from repro.analysis.paramedir import (
    Paramedir,
    read_profiles_csv,
    write_profiles_csv,
)
from repro.advisor.advisor import HmemAdvisor
from repro.advisor.report import PlacementReport
from repro.advisor.strategies import get_strategy
from repro.pipeline.experiment import run_figure4_experiment
from repro.placement.policies import run_framework
from repro.trace.tracefile import TraceFile
from repro.units import MIB


class TestFullPipelineThroughFiles:
    def test_every_stage_round_trips_on_disk(self, tiny_app, machine,
                                             tmp_path):
        """Stage 1 -> trace file -> stage 2 -> CSV -> stage 3 ->
        report file -> stage 4, exactly like the real toolchain."""
        fw = HybridMemoryFramework(tiny_app, machine)

        # Stage 1: instrumented run, trace persisted.
        profiling = fw.profile()
        trace_path = tmp_path / "run.trace"
        profiling.trace.to_tracefile().save(trace_path)

        # Stage 2: Paramedir over the loaded trace -> CSV.
        trace = TraceFile.load(trace_path)
        profiles = Paramedir().analyze(trace)
        csv_path = tmp_path / "objects.csv"
        write_profiles_csv(profiles, csv_path)

        # Stage 3: hmem_advisor over the loaded CSV -> report file.
        loaded_profiles = read_profiles_csv(csv_path)
        advisor = HmemAdvisor(fw.memory_spec(128 * MIB))
        report = advisor.advise(loaded_profiles, get_strategy("density"))
        report_path = tmp_path / "placement.report"
        report.save(report_path)

        # Stage 4: auto-hbwmalloc honoring the loaded report.
        loaded_report = PlacementReport.load(report_path)
        outcome = run_framework(
            tiny_app, machine, profiling, loaded_report,
            budget_real=128 * MIB,
        )
        ddr_fom = tiny_app.calibration.fom_ddr
        assert outcome.fom > ddr_fom

    def test_in_memory_equals_file_path(self, tiny_app, machine, tmp_path):
        fw = HybridMemoryFramework(tiny_app, machine)
        direct = fw.run(128 * MIB, "density")

        profiling = fw.profile()
        trace_path = tmp_path / "run.trace"
        profiling.trace.to_tracefile().save(trace_path)
        profiles = Paramedir().analyze(TraceFile.load(trace_path))
        report = HmemAdvisor(fw.memory_spec(128 * MIB)).advise(
            profiles, get_strategy("density")
        )
        via_files = run_framework(
            tiny_app, machine, profiling, report, budget_real=128 * MIB
        )
        assert via_files.fom == pytest.approx(direct.outcome.fom, rel=1e-6)


@pytest.mark.slow
class TestPaperClaims:
    """Section IV-C's qualitative results on the real app models."""

    @pytest.fixture(scope="class")
    def results(self):
        return {
            name: run_figure4_experiment(get_app(name))
            for name in ("hpcg", "lulesh", "minife", "snap")
        }

    def _winner(self, result):
        contenders = {
            "framework": result.best_framework().fom,
            "Cache": result.baselines["Cache"].fom,
            "MCDRAM*": result.baselines["MCDRAM*"].fom,
            "autohbw/1m": result.baselines["autohbw/1m"].fom,
        }
        return max(contenders, key=contenders.get)

    def test_framework_wins_hpcg(self, results):
        assert self._winner(results["hpcg"]) == "framework"

    def test_hpcg_magnitudes(self, results):
        r = results["hpcg"]
        gain = r.best_framework().fom / r.fom_ddr - 1
        assert 0.6 < gain < 1.0  # paper: +78.88 %
        vs_cache = r.best_framework().fom / r.baselines["Cache"].fom - 1
        assert 0.1 < vs_cache < 0.45  # paper: +24.82 %

    def test_cache_wins_lulesh(self, results):
        assert self._winner(results["lulesh"]) == "Cache"

    def test_lulesh_cache_magnitude(self, results):
        r = results["lulesh"]
        gain = r.baselines["Cache"].fom / r.fom_ddr - 1
        assert 0.3 < gain < 0.65  # paper: +46.98 %

    def test_autohbw_hurts_lulesh(self, results):
        r = results["lulesh"]
        assert r.baselines["autohbw/1m"].fom < r.fom_ddr  # paper: -8 %

    def test_framework_wins_minife(self, results):
        assert self._winner(results["minife"]) == "framework"

    def test_numactl_wins_snap(self, results):
        assert self._winner(results["snap"]) == "MCDRAM*"

    def test_snap_density_strands_big_buffer(self, results):
        """Density leaves the 248 MB angular flux stranded: HWM stays
        ~66 MB at the 256 MB budget while miss ranking uses ~248 MB."""
        r = results["snap"]
        density = r.row(256 * MIB, "density").hwm_mb
        misses = r.row(256 * MIB, "misses-0%").hwm_mb
        assert density < 80
        assert misses > 200

    def test_autohbw_never_wins(self, results):
        for result in results.values():
            assert self._winner(result) != "autohbw/1m"
