"""Command-line tools: argument handling and the four-stage shell flow."""

import argparse

import pytest

from repro._oracles import attribute_samples
from repro.analysis.paramedir import write_profiles_csv
from repro.analysis.profile import ProfileSet
from repro.cli.main import (
    advise_main,
    analyze_main,
    experiment_main,
    faults_main,
    parse_size,
    place_main,
    profile_main,
)
from repro.faults.injector import damage_trace_file
from repro.faults.plan import FaultPlan
from repro.trace.tracefile import TraceFile
from repro.units import GIB, KIB, MIB


class TestParseSize:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("4096", 4096),
            ("64K", 64 * KIB),
            ("256M", 256 * MIB),
            ("16G", 16 * GIB),
            ("1.5M", int(1.5 * MIB)),
            (" 32M ", 32 * MIB),
        ],
    )
    def test_valid(self, text, expected):
        assert parse_size(text) == expected

    @pytest.mark.parametrize("text", ["abc", "12X", ""])
    def test_invalid(self, text):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_size(text)


class TestShellFlow:
    def test_full_flow(self, tmp_path, capsys):
        trace = tmp_path / "app.trace"
        csv = tmp_path / "objects.csv"
        report = tmp_path / "placement.report"

        assert profile_main(["minife", "-o", str(trace)]) == 0
        assert trace.exists()

        assert analyze_main([str(trace), "-o", str(csv), "--top", "3"]) == 0
        assert csv.exists()

        assert advise_main(
            [str(csv), "--app", "minife", "--budget", "128M",
             "--strategy", "density", "-o", str(report)]
        ) == 0
        assert report.exists()

        assert place_main(
            ["minife", str(report), "--budget", "128M"]
        ) == 0
        out = capsys.readouterr().out
        assert "DDR baseline" in out
        assert "framework" in out

    def test_profile_with_latency(self, tmp_path):
        trace = tmp_path / "lat.trace"
        assert profile_main(
            ["minife", "-o", str(trace), "--latency", "--period", "9"]
        ) == 0
        loaded = TraceFile.load(trace)
        assert loaded.sampling_period == 9
        assert any(
            s.latency_cycles is not None for s in loaded.sample_events
        )

    def test_advise_partial(self, tmp_path, capsys):
        trace = tmp_path / "app.trace"
        csv = tmp_path / "objects.csv"
        report = tmp_path / "partial.report"
        profile_main(["hpcg", "-o", str(trace)])
        analyze_main([str(trace), "-o", str(csv)])
        assert advise_main(
            [str(csv), "--app", "hpcg", "--budget", "96M", "--partial",
             "-o", str(report)]
        ) == 0
        assert "fraction=" in report.read_text()

    def test_experiment(self, capsys):
        assert experiment_main(["cgpop"]) == 0
        out = capsys.readouterr().out
        assert "-- FOM --" in out
        assert "baselines" in out

    def test_experiment_parallel_cached_metrics(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        argv = ["cgpop", "minife", "--jobs", "2",
                "--cache-dir", str(cache), "--metrics"]
        assert experiment_main(argv) == 0
        out = capsys.readouterr().out
        assert "== cgpop:" in out
        assert "== minife:" in out
        assert "-- stage metrics --" in out
        assert "cache_miss=40" in out

        # Warm re-run: every cell answered from the cache, zero stages.
        assert experiment_main(argv) == 0
        out = capsys.readouterr().out
        assert "cache_hit=40" in out
        assert "cache_miss" not in out
        assert "-- FOM --" in out

    def test_experiment_rejects_bad_jobs(self, capsys):
        assert experiment_main(["cgpop", "--jobs", "0"]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_app_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            profile_main(["hpl", "-o", str(tmp_path / "x")])

    def test_missing_trace_errors_cleanly(self, tmp_path, capsys):
        missing = tmp_path / "ghost.trace"
        with pytest.raises(FileNotFoundError):
            analyze_main([str(missing), "-o", str(tmp_path / "o.csv")])


class TestColumnarFlow:
    def test_analyze_engines_agree(self, tmp_path):
        """repro-analyze's CSV equals the one the per-event oracle's
        attribution of the same trace writes."""
        trace = tmp_path / "app.trace"
        profile_main(["minife", "-o", str(trace)])
        vec_csv = tmp_path / "vec.csv"
        orc_csv = tmp_path / "orc.csv"
        assert analyze_main([str(trace), "-o", str(vec_csv)]) == 0
        rows = TraceFile.load(trace)
        write_profiles_csv(
            ProfileSet.from_attribution(
                attribute_samples(rows),
                sampling_period=rows.sampling_period,
                application=rows.application,
            ),
            orc_csv,
        )
        assert vec_csv.read_text() == orc_csv.read_text()

    def test_profile_columnar_end_to_end(self, tmp_path):
        """--columnar writes the binary trace; analysis of it must
        match the JSONL path byte for byte."""
        from repro.trace.columnar import is_columnar_trace

        jsonl, npz = tmp_path / "row.trace", tmp_path / "col.npz"
        assert profile_main(["minife", "-o", str(jsonl)]) == 0
        assert profile_main(["minife", "-o", str(npz), "--columnar"]) == 0
        assert not is_columnar_trace(jsonl)
        assert is_columnar_trace(npz)
        row_csv, col_csv = tmp_path / "row.csv", tmp_path / "col.csv"
        assert analyze_main([str(jsonl), "-o", str(row_csv)]) == 0
        assert analyze_main([str(npz), "-o", str(col_csv)]) == 0
        assert col_csv.read_text() == row_csv.read_text()

    def test_profile_accepts_every_registered_app(self, tmp_path):
        """Single-app CLIs take their choices from the registry, so
        the synthetic phaseshift model profiles like a Table I app and
        writes the trace the library would."""
        from repro.apps.registry import get_app
        from repro.trace.columnar import ColumnarTrace

        npz = tmp_path / "phaseshift.npz"
        assert profile_main(["phaseshift", "-o", str(npz), "--columnar"]) == 0
        loaded = ColumnarTrace.load(npz)
        direct = get_app("phaseshift").run_profiling(seed=0).trace
        assert loaded.n_samples == direct.n_samples > 0
        assert (loaded.addresses == direct.addresses).all()

    def test_profile_columnar_with_latency(self, tmp_path):
        from repro.trace.columnar import ColumnarTrace

        npz = tmp_path / "lat.npz"
        assert profile_main(
            ["minife", "-o", str(npz), "--columnar", "--latency",
             "--period", "9"]
        ) == 0
        loaded = ColumnarTrace.load(npz)
        assert loaded.sampling_period == 9
        assert any(
            s.latency_cycles is not None
            for s in loaded.to_tracefile().sample_events
        )


class TestFaultFlow:
    def test_analyze_salvages_damaged_trace(self, tmp_path, capsys):
        trace = tmp_path / "app.trace"
        csv = tmp_path / "objects.csv"
        assert profile_main(["minife", "-o", str(trace)]) == 0
        damage_trace_file(
            trace, FaultPlan(seed=1, trace_truncate_fraction=0.8)
        )
        # Strict analysis refuses the damaged trace...
        assert analyze_main([str(trace), "-o", str(csv)]) == 1
        assert "error" in capsys.readouterr().err
        assert not csv.exists()
        # ...--salvage recovers the intact prefix and reports the loss.
        assert analyze_main([str(trace), "-o", str(csv), "--salvage"]) == 0
        err = capsys.readouterr().err
        assert "salvage:" in err
        assert "lost" in err
        assert csv.exists()

    def test_experiment_with_fault_plan(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        FaultPlan(seed=4, mcdram_capacity_factor=0.5).save(plan_path)
        assert experiment_main(
            ["cgpop", "--fault-plan", str(plan_path), "--metrics"]
        ) == 0
        out = capsys.readouterr().out
        assert "-- FOM --" in out

    def test_faults_resilience_table(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        cache = tmp_path / "cache"
        FaultPlan(seed=4, mcdram_capacity_factor=0.5).save(plan_path)
        argv = ["cgpop", "--plan", str(plan_path), "--factors", "0,1",
                "--cache-dir", str(cache)]
        assert faults_main(argv) == 0
        out = capsys.readouterr().out
        assert "resilience sweep: cgpop" in out
        assert "worst-case cell survival: 100%" in out
        # Warm re-run answered from the cache; an unreachable survival
        # floor must flip the exit code.
        assert faults_main(argv + ["--min-survival", "1.01"]) == 1
        assert "fell below" in capsys.readouterr().err

    def test_sweep_clis_accept_every_registered_app(self, tmp_path, capsys):
        """``repro-experiment`` and ``repro-faults`` take their app
        choices from the registry, like ``run_sweep`` does: the
        synthetic phaseshift model is not only a Table I name."""
        assert experiment_main(["phaseshift"]) == 0
        assert "-- FOM --" in capsys.readouterr().out
        plan_path = tmp_path / "plan.json"
        FaultPlan(seed=4, mcdram_capacity_factor=0.5).save(plan_path)
        assert faults_main(
            ["phaseshift", "--plan", str(plan_path), "--factors", "0,1"]
        ) == 0
        assert "resilience sweep: phaseshift" in capsys.readouterr().out

    def test_faults_rejects_bad_factors(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        FaultPlan(seed=0).save(plan_path)
        assert faults_main(
            ["cgpop", "--plan", str(plan_path), "--factors", "a,b"]
        ) == 1
        assert "factors" in capsys.readouterr().err


class TestOnlineFlow:
    def test_online_journal_and_resume_flags(self, tmp_path, capsys):
        from repro.cli.main import online_main

        plan = tmp_path / "plan.json"
        FaultPlan(
            seed=7, window_corrupt_rate=0.10, migration_failure_rate=0.05
        ).save(plan)
        journal = tmp_path / "decisions.journal"
        checkpoints = tmp_path / "ckpt"
        args = [
            "phaseshift", "--budget", "32M", "--fault-plan", str(plan),
            "--journal", str(journal), "--checkpoint-dir", str(checkpoints),
        ]
        assert online_main(args) == 0
        out = capsys.readouterr().out
        assert "degraded:" in out
        first = journal.read_bytes()
        assert first.startswith(b"# repro-online phaseshift")
        # Resuming a completed session replays it byte-identically.
        assert online_main([*args, "--resume"]) == 0
        assert journal.read_bytes() == first

    def test_resume_without_checkpoint_dir_fails_fast(
        self, tmp_path, capsys
    ):
        from repro.cli.main import online_main

        journal = tmp_path / "never.journal"
        assert online_main(
            ["phaseshift", "--budget", "32M", "--journal", str(journal),
             "--resume"]
        ) == 1
        assert "--resume needs --checkpoint-dir" in capsys.readouterr().err
        assert not journal.exists()

    def test_online_rejects_window_conflict(self, capsys):
        from repro.cli.main import online_main

        assert online_main(
            ["phaseshift", "--budget", "32M",
             "--window", "5.0", "--windows", "8"]
        ) == 1
        assert "pick one" in capsys.readouterr().err
