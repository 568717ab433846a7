"""Entry points for the repro-* commands."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.advisor.advisor import HmemAdvisor
from repro.advisor.report import PlacementReport
from repro.advisor.strategies import STRATEGY_NAMES, get_strategy
from repro.analysis.config import AnalysisConfig
from repro.analysis.paramedir import (
    Paramedir,
    read_profiles_csv,
    write_profiles_csv,
)
from repro.apps import ALL_APP_NAMES, get_app
from repro.errors import ReproError
from repro.faults.plan import FaultPlan
from repro.faults.resilience import run_resilience_sweep
from repro.machine.config import xeon_phi_7250
from repro.metrics import percent_gain
from repro.parallel.sweep import run_sweep
from repro.pipeline.framework import HybridMemoryFramework
from repro.placement.policies import run_ddr_only, run_framework
from repro.reporting.tables import (
    AsciiTable,
    format_figure4,
    format_resilience,
    format_stage_metrics,
)
from repro.trace.columnar import load_any_trace
from repro.trace.tracer import TracerConfig
from repro.units import GIB, KIB, MIB


def parse_size(text: str) -> int:
    """Parse ``"256M"``/``"16G"``/``"4096"``-style sizes (binary units)."""
    text = text.strip()
    multipliers = {"K": KIB, "M": MIB, "G": GIB}
    suffix = text[-1:].upper()
    try:
        if suffix in multipliers:
            return int(float(text[:-1]) * multipliers[suffix])
        return int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"bad size {text!r}; use e.g. 4096, 256M, 16G"
        ) from exc


def _app_argument(parser: argparse.ArgumentParser, positional: bool = True):
    kwargs = dict(
        choices=ALL_APP_NAMES,
        help=f"application model ({', '.join(ALL_APP_NAMES)})",
    )
    if positional:
        parser.add_argument("app", **kwargs)
    else:
        parser.add_argument("--app", required=True, **kwargs)


def _run(parser: argparse.ArgumentParser, fn, argv) -> int:
    args = parser.parse_args(argv)
    try:
        fn(args)
        return 0
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


# ---------------------------------------------------------------------------
# repro-profile
# ---------------------------------------------------------------------------


def profile_main(argv: list[str] | None = None) -> int:
    """Stage 1: instrumented run -> trace file."""
    parser = argparse.ArgumentParser(
        prog="repro-profile",
        description="Run the instrumented (Extrae-substitute) execution "
        "of one application model and write its trace.",
    )
    _app_argument(parser)
    parser.add_argument("-o", "--output", type=Path, required=True,
                        help="trace file to write (JSON lines)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--period", type=int, default=None,
                        help="PEBS sampling period (default: the "
                        "application's calibrated period)")
    parser.add_argument("--latency", action="store_true",
                        help="record per-sample access latency "
                        "(Xeon-style PMU)")
    parser.add_argument("--columnar", action="store_true",
                        help="write the binary columnar trace (.npz) "
                        "instead of JSON lines; the analysis stage then "
                        "skips JSONL parsing entirely")

    def run(args) -> None:
        app = get_app(args.app)
        config = TracerConfig(
            sampling_period=args.period or app.sampling_period,
            record_latency=args.latency,
        )
        trace = app.run_profiling(seed=args.seed, tracer_config=config).trace
        if args.columnar:
            trace.save(args.output)
        else:
            trace.to_tracefile().save(args.output)
        print(
            f"{args.app}: {trace.n_allocs} allocations, "
            f"{trace.n_samples} samples -> {args.output}"
        )

    return _run(parser, run, argv)


# ---------------------------------------------------------------------------
# repro-analyze
# ---------------------------------------------------------------------------


def analyze_main(argv: list[str] | None = None) -> int:
    """Stage 2: trace file -> per-object CSV."""
    parser = argparse.ArgumentParser(
        prog="repro-analyze",
        description="Reduce a trace to per-object statistics "
        "(Paramedir substitute).",
    )
    parser.add_argument("trace", type=Path)
    parser.add_argument("-o", "--output", type=Path, required=True,
                        help="CSV file to write")
    parser.add_argument("--top", type=int, default=10,
                        help="print the N hottest objects")
    parser.add_argument("--config", type=Path, default=None,
                        help="stored analysis configuration (JSON; the "
                        "Paramedir cfg mechanism)")
    parser.add_argument("--window", nargs=2, type=float, default=None,
                        metavar=("T0", "T1"),
                        help="restrict samples to a time window")
    parser.add_argument("--min-size", type=parse_size, default=None,
                        help="drop objects smaller than this")
    parser.add_argument("--salvage", action="store_true",
                        help="recover every intact record from a "
                        "damaged trace instead of failing on the "
                        "first corrupt line")

    def run(args) -> None:
        trace = load_any_trace(args.trace, salvage=args.salvage)
        if trace.salvage is not None and not trace.salvage.clean:
            report = trace.salvage
            print(
                f"salvage: recovered {report.recovered_records} records, "
                f"{report.damaged_lines} damaged lines, "
                f"~{report.lost_records} records lost",
                file=sys.stderr,
            )
        config = AnalysisConfig.load(args.config) if args.config else None
        if args.window is not None or args.min_size is not None:
            base = config or AnalysisConfig()
            config = AnalysisConfig(
                time_window=tuple(args.window)
                if args.window is not None
                else base.time_window,
                ranks=base.ranks,
                min_object_size=args.min_size
                if args.min_size is not None
                else base.min_object_size,
                top_n=base.top_n,
                include_statics=base.include_statics,
            )
        profiles = Paramedir(config).analyze(trace)
        write_profiles_csv(profiles, args.output)
        table = AsciiTable(["object", "misses", "est. misses", "size MB",
                            "density"])
        for p in profiles.by_misses()[: args.top]:
            table.add_row(
                p.key.label, p.sampled_misses, p.estimated_misses,
                p.size / MIB, p.density,
            )
        print(table.render())
        print(
            f"\n{len(profiles)} objects, {profiles.total_samples} samples "
            f"({profiles.stack_samples} on the stack, "
            f"{profiles.unresolved_samples} unresolved) -> {args.output}"
        )

    return _run(parser, run, argv)


# ---------------------------------------------------------------------------
# repro-advise
# ---------------------------------------------------------------------------


def advise_main(argv: list[str] | None = None) -> int:
    """Stage 3: CSV + budget + strategy -> placement report."""
    parser = argparse.ArgumentParser(
        prog="repro-advise",
        description="Compute an object-to-tier distribution "
        "(hmem_advisor substitute).",
    )
    parser.add_argument("csv", type=Path)
    _app_argument(parser, positional=False)
    parser.add_argument("--budget", type=parse_size, required=True,
                        help="fast-memory budget per rank, real bytes "
                        "(e.g. 256M)")
    parser.add_argument("--strategy", default="misses-0%",
                        help=f"one of {', '.join(STRATEGY_NAMES)}, "
                        "latency-<pct>% or latency-density")
    parser.add_argument("--partial", action="store_true",
                        help="allow partial-object placement "
                        "(Section V extension)")
    parser.add_argument("-o", "--output", type=Path, required=True)

    def run(args) -> None:
        app = get_app(args.app)
        profiles = read_profiles_csv(args.csv)
        profiles.application = args.app
        fw = HybridMemoryFramework(app)
        advisor = HmemAdvisor(fw.memory_spec(args.budget))
        report = advisor.advise(
            profiles, get_strategy(args.strategy), allow_partial=args.partial
        )
        report.save(args.output)
        print(report.to_text())
        print(f"-> {args.output}")

    return _run(parser, run, argv)


# ---------------------------------------------------------------------------
# repro-place
# ---------------------------------------------------------------------------


def place_main(argv: list[str] | None = None) -> int:
    """Stage 4: re-execute under auto-hbwmalloc honoring a report."""
    parser = argparse.ArgumentParser(
        prog="repro-place",
        description="Re-run an application with auto-hbwmalloc honoring "
        "a placement report, and compare against the all-DDR run.",
    )
    _app_argument(parser)
    parser.add_argument("report", type=Path)
    parser.add_argument("--budget", type=parse_size, required=True)
    parser.add_argument("--seed", type=int, default=0)

    def run(args) -> None:
        app = get_app(args.app)
        machine = xeon_phi_7250()
        fw = HybridMemoryFramework(app, machine, seed=args.seed)
        profiling = fw.profile()
        report = PlacementReport.load(args.report)
        outcome = run_framework(
            app, machine, profiling, report, budget_real=args.budget
        )
        ddr = run_ddr_only(app, machine, profiling)
        units = app.calibration.fom_units
        print(f"DDR baseline : {ddr.fom:12,.4g} {units}")
        print(
            f"framework    : {outcome.fom:12,.4g} {units} "
            f"({percent_gain(outcome.fom, ddr.fom):+.1f} %)"
        )
        print(
            f"MCDRAM HWM   : {outcome.hwm_bytes / MIB:.0f} MB/rank of the "
            f"{args.budget / MIB:.0f} MB budget"
        )

    return _run(parser, run, argv)


# ---------------------------------------------------------------------------
# repro-experiment
# ---------------------------------------------------------------------------


def experiment_main(argv: list[str] | None = None) -> int:
    """The full Figure 4 grid: budgets x strategies + baselines,
    for one or more applications, optionally parallel and cached."""
    parser = argparse.ArgumentParser(
        prog="repro-experiment",
        description="Run the full evaluation grid (Figure 4 rows) for "
        "one or more applications. Cells fan out across worker "
        "processes and warm re-runs are answered from the result "
        "cache without executing any pipeline stage.",
    )
    parser.add_argument("apps", nargs="+", choices=ALL_APP_NAMES, metavar="app",
                        help=f"application model(s) ({', '.join(ALL_APP_NAMES)})")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("-j", "--jobs", type=int, default=1,
                        help="worker processes for the sweep "
                        "(default 1: in-process serial execution)")
    parser.add_argument("--cache-dir", type=Path, default=None,
                        help="directory for the content-addressed "
                        "result cache (warm re-runs skip all stages)")
    parser.add_argument("--metrics", action="store_true",
                        help="print per-stage execution counts and "
                        "wall time after the results")
    parser.add_argument("--fault-plan", type=Path, default=None,
                        help="JSON fault plan to inject (seeded, "
                        "deterministic degradation; see repro-faults)")
    parser.add_argument("--retries", type=int, default=1,
                        help="re-executions granted to a faulting cell "
                        "(default 1)")
    parser.add_argument("--backoff", type=float, default=0.0,
                        metavar="SECONDS",
                        help="base retry delay; attempt n waits a "
                        "decorrelated-jitter delay seeded per cell "
                        "(default 0: no delay)")
    parser.add_argument("--timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="wall-clock limit per cell attempt")
    parser.add_argument("--error-budget", type=int, default=None,
                        metavar="N",
                        help="after N cells fail, skip the remaining "
                        "cells instead of executing them (fail-fast)")
    parser.add_argument("--journal-dir", type=Path, default=None,
                        help="directory for the crash-consistent sweep "
                        "journal; a killed sweep can be relaunched "
                        "with --resume")
    parser.add_argument("--resume", action="store_true",
                        help="replay settled cells from the journal in "
                        "--journal-dir and execute only the rest")
    parser.add_argument("--cell-deadline", type=float, default=None,
                        metavar="SECONDS",
                        help="per-cell wall-clock deadline; with -j>1 "
                        "a worker whose cell overruns it is killed and "
                        "the cell requeued (worker supervision)")
    parser.add_argument("--requeue-budget", type=int, default=2,
                        metavar="N",
                        help="requeues granted to a cell whose worker "
                        "died or was killed (default 2)")
    parser.add_argument("--circuit-threshold", type=int, default=None,
                        metavar="N",
                        help="open an application's circuit (skip its "
                        "remaining cells) after N deterministic "
                        "failures")
    parser.add_argument("--shared-plane", action="store_true",
                        help="with -j>1, profile each application once "
                        "in the parent and publish the trace to a "
                        "shared plane; workers attach zero-copy "
                        "instead of re-profiling")
    parser.add_argument("--plane-backend", choices=("shm", "mmap"),
                        default="shm",
                        help="shared-plane transport: POSIX shared "
                        "memory segments (default) or mmap-able "
                        "on-disk .npy directories")

    def run(args) -> None:
        apps = [get_app(name) for name in args.apps]
        fault_plan = (
            FaultPlan.load(args.fault_plan)
            if args.fault_plan is not None
            else None
        )
        sweep = run_sweep(
            apps,
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            seed=args.seed,
            retries=args.retries,
            backoff_seconds=args.backoff,
            timeout_seconds=args.timeout,
            error_budget=args.error_budget,
            fault_plan=fault_plan,
            journal_dir=args.journal_dir,
            resume=args.resume,
            cell_deadline=args.cell_deadline,
            requeue_budget=args.requeue_budget,
            circuit_threshold=args.circuit_threshold,
            shared_plane=args.shared_plane,
            plane_backend=args.plane_backend,
        )
        if sweep.resumed:
            print(
                f"resume: {len(sweep.resumed)} of {len(sweep.outcomes)} "
                "cells replayed from the journal",
                file=sys.stderr,
            )
        failed_apps = {f.application for f in sweep.failures}
        failed_apps.update(s.application for s in sweep.skipped)
        for failure in sweep.failures:
            print(
                f"error: {failure.application} cell "
                f"{failure.cell.label}@{failure.cell.budget_bytes} failed "
                f"after {failure.attempts} attempts:\n{failure.error}",
                file=sys.stderr,
            )
        if sweep.skipped:
            print(
                f"{len(sweep.skipped)} cells skipped (error budget "
                "exhausted or circuit open)",
                file=sys.stderr,
            )
        for app in apps:
            if app.name in failed_apps:
                print(f"{app.name}: incomplete grid (cells failed), "
                      "skipping tables", file=sys.stderr)
                continue
            print(format_figure4(sweep.experiment(app)))
        if args.metrics:
            print(format_stage_metrics(sweep.metrics))
        if sweep.failures or sweep.skipped:
            raise ReproError(
                f"{len(sweep.failures)} of {len(sweep.outcomes)} sweep "
                f"cells failed ({len(sweep.skipped)} skipped)"
            )

    return _run(parser, run, argv)


# ---------------------------------------------------------------------------
# repro-faults
# ---------------------------------------------------------------------------


def faults_main(argv: list[str] | None = None) -> int:
    """Resilience study: the Figure-4 sweep under escalating faults."""
    parser = argparse.ArgumentParser(
        prog="repro-faults",
        description="Run the evaluation sweep at a ladder of fault "
        "intensities (a scaled fault plan per rung) and print a "
        "resilience table: cell survival, degradation events and "
        "placement quality relative to the clean run.",
    )
    parser.add_argument("apps", nargs="+", choices=ALL_APP_NAMES, metavar="app",
                        help=f"application model(s) ({', '.join(ALL_APP_NAMES)})")
    parser.add_argument("--plan", type=Path, required=True,
                        help="JSON fault plan (the factor-1 rung; other "
                        "rungs scale its rates)")
    parser.add_argument("--factors", default="0,0.5,1",
                        help="comma-separated fault-intensity ladder "
                        "(0 = clean reference; default 0,0.5,1)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("-j", "--jobs", type=int, default=1)
    parser.add_argument("--cache-dir", type=Path, default=None)
    parser.add_argument("--retries", type=int, default=1)
    parser.add_argument("--backoff", type=float, default=0.0,
                        metavar="SECONDS")
    parser.add_argument("--timeout", type=float, default=None,
                        metavar="SECONDS")
    parser.add_argument("--error-budget", type=int, default=None,
                        metavar="N")
    parser.add_argument("--journal-dir", type=Path, default=None,
                        help="journal root; each rung journals under "
                        "its own rung-<factor> subdirectory")
    parser.add_argument("--resume", action="store_true",
                        help="resume each rung from its journal")
    parser.add_argument("--cell-deadline", type=float, default=None,
                        metavar="SECONDS",
                        help="per-cell deadline (worker supervision "
                        "with -j>1)")
    parser.add_argument("--requeue-budget", type=int, default=2,
                        metavar="N")
    parser.add_argument("--circuit-threshold", type=int, default=None,
                        metavar="N")
    parser.add_argument("--min-survival", type=float, default=None,
                        metavar="FRACTION",
                        help="fail (exit 1) if any rung's cell survival "
                        "drops below this fraction")

    def run(args) -> None:
        apps = [get_app(name) for name in args.apps]
        plan = FaultPlan.load(args.plan)
        try:
            factors = tuple(
                float(f) for f in args.factors.split(",") if f.strip()
            )
        except ValueError as exc:
            raise ReproError(
                f"bad --factors {args.factors!r}: {exc}"
            ) from exc
        if not factors:
            raise ReproError("--factors must name at least one rung")
        table = run_resilience_sweep(
            apps,
            plan,
            factors=factors,
            jobs=args.jobs,
            seed=args.seed,
            retries=args.retries,
            backoff_seconds=args.backoff,
            timeout_seconds=args.timeout,
            error_budget=args.error_budget,
            cache_dir=args.cache_dir,
            journal_dir=args.journal_dir,
            resume=args.resume,
            cell_deadline=args.cell_deadline,
            requeue_budget=args.requeue_budget,
            circuit_threshold=args.circuit_threshold,
        )
        print(format_resilience(table))
        if (
            args.min_survival is not None
            and table.worst_survival < args.min_survival
        ):
            raise ReproError(
                f"cell survival {table.worst_survival:.0%} fell below "
                f"the required {args.min_survival:.0%}"
            )

    return _run(parser, run, argv)


# ---------------------------------------------------------------------------
# repro-online
# ---------------------------------------------------------------------------


def online_main(argv: list[str] | None = None) -> int:
    """Windowed mode: re-advise per sample window, emit migrations."""
    parser = argparse.ArgumentParser(
        prog="repro-online",
        description="Run the online re-advising daemon over one "
        "application: attribute each sample window incrementally, "
        "re-solve placement, diff into promote/demote migrations, and "
        "score the session (migration cost included) against the "
        "matched one-shot placement.",
    )
    _app_argument(parser)
    parser.add_argument("--budget", type=parse_size, required=True,
                        help="fast-tier budget per rank, e.g. 32M")
    parser.add_argument("--strategy", default="misses-0%",
                        choices=STRATEGY_NAMES)
    parser.add_argument("--window", type=float, default=None,
                        help="decision window in simulated seconds "
                        "(default: the run divided into --windows)")
    parser.add_argument("--windows", type=int, default=16,
                        help="number of equal windows when --window "
                        "is not given (default 16)")
    parser.add_argument("--hysteresis", type=int, default=1,
                        help="consecutive windows a site must win or "
                        "lose its placement before migrating "
                        "(default 1: act immediately)")
    parser.add_argument("--migration-bw", type=parse_size, default=None,
                        help="tier-to-tier migration bandwidth in "
                        "bytes/s, e.g. 10G (default: the model's "
                        "page-migration constant)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--journal", type=Path, default=None,
                        help="write the per-window decision journal "
                        "to this file (deterministic; what CI diffs)")
    parser.add_argument("--fault-plan", type=Path, default=None,
                        help="FaultPlan JSON; its streaming fault "
                        "kinds (window drop/corrupt/late, migration "
                        "failures) degrade the serving loop")
    parser.add_argument("--checkpoint-dir", type=Path, default=None,
                        help="append each settled window to a decision "
                        "log here; a killed session resumes with "
                        "--resume")
    parser.add_argument("--resume", action="store_true",
                        help="re-execute the windows logged in "
                        "--checkpoint-dir (if any), verifying each "
                        "against the log, then run the rest; the "
                        "journal stays byte-identical to an "
                        "uninterrupted run")
    parser.add_argument("--deadline", type=float, default=None,
                        metavar="SECONDS",
                        help="wall-clock budget per window decision; "
                        "an overrun freezes the placement for that "
                        "window (degraded, reason=deadline)")
    parser.add_argument("--migration-retries", type=int, default=2,
                        metavar="N",
                        help="retries granted to a migration's "
                        "transient failures (default 2)")
    parser.add_argument("--migration-error-budget", type=int, default=16,
                        metavar="N",
                        help="per-run budget of migration retry "
                        "attempts (default 16)")
    parser.add_argument("--migration-backoff", type=float, default=0.0,
                        metavar="SECONDS",
                        help="base of the decorrelated-jitter delay "
                        "between migration retries (default 0: "
                        "retry immediately)")
    parser.add_argument("--circuit-threshold", type=int, default=4,
                        metavar="N",
                        help="deterministic migration failures before "
                        "the migration circuit opens — advice "
                        "continues, movement freezes (default 4; "
                        "0 disables the breaker)")
    parser.add_argument("--window-pause", type=float, default=0.0,
                        metavar="SECONDS",
                        help="wall-clock pause before each window "
                        "(stretches the run so chaos tests can kill "
                        "it mid-session; never affects the journal)")

    def run(args) -> None:
        from repro.ioutil import atomic_write_text
        from repro.machine.performance import MIGRATION_BANDWIDTH_DEFAULT
        from repro.online import OnlineConfig

        config = OnlineConfig(
            window_seconds=args.window,
            n_windows=args.windows,
            strategy=args.strategy,
            confirm_windows=args.hysteresis,
            migration_bandwidth=(
                float(args.migration_bw)
                if args.migration_bw is not None
                else MIGRATION_BANDWIDTH_DEFAULT
            ),
            decision_deadline_seconds=args.deadline,
            migration_retries=args.migration_retries,
            migration_backoff_seconds=args.migration_backoff,
            migration_error_budget=args.migration_error_budget,
            migration_circuit_threshold=(
                args.circuit_threshold if args.circuit_threshold else None
            ),
            window_pause_seconds=args.window_pause,
        )
        fault_plan = (
            FaultPlan.load(args.fault_plan)
            if args.fault_plan is not None
            else None
        )
        framework = HybridMemoryFramework(
            get_app(args.app), seed=args.seed, fault_plan=fault_plan
        )
        outcome = framework.run_windowed(
            args.budget,
            config,
            checkpoint_dir=args.checkpoint_dir,
            resume=args.resume,
        )
        run_record = outcome.run
        n_actions = len(run_record.actions)
        print(f"{args.app}: {len(run_record.decisions)} windows, "
              f"{n_actions} migrations, "
              f"{run_record.migrated_bytes_real} bytes moved/rank")
        if run_record.degraded_windows or run_record.migration_failures:
            print(f"degraded: {run_record.degraded_windows} windows, "
                  f"{run_record.migration_failures} migrations failed "
                  f"({run_record.migration_retries_used} retries, "
                  f"circuit "
                  f"{'open' if run_record.circuit_open else 'closed'})")
        print(f"one-shot FOM: {outcome.one_shot_fom:.2f}")
        print(f"online   FOM: {outcome.online_fom:.2f} "
              f"({percent_gain(outcome.online_fom, outcome.one_shot_fom):+.1f}% "
              "vs one-shot, migration cost included)")
        if args.journal is not None:
            # Durable like the sweep journal: the chaos harness diffs
            # this file, so a crash must never leave a torn tail.
            atomic_write_text(
                args.journal,
                "\n".join(run_record.journal_lines()) + "\n",
            )
            print(f"journal -> {args.journal}")

    return _run(parser, run, argv)


# ---------------------------------------------------------------------------
# repro-cluster
# ---------------------------------------------------------------------------


def cluster_main(argv: list[str] | None = None) -> int:
    """Simulate multi-tenant placement on a fleet of hybrid nodes."""
    parser = argparse.ArgumentParser(
        prog="repro-cluster",
        description="Seeded discrete-event simulation of application "
        "instances arriving on a fleet of hybrid-memory nodes: a "
        "pluggable scheduler admits jobs to nodes, the knapsack "
        "advisor packs each tenant's objects into its granted slice "
        "of the node's MCDRAM budget, co-residents split delivered "
        "bandwidth, and departures re-advise the freed capacity to "
        "survivors. Reports aggregate FOM, HBW fragmentation, Jain "
        "fairness and queueing delay.",
    )
    parser.add_argument("--nodes", type=int, default=4,
                        help="fleet size (default 4)")
    parser.add_argument("--node-budget", type=parse_size, default="512M",
                        metavar="BYTES",
                        help="schedulable MCDRAM per node "
                        "(default 512M)")
    parser.add_argument("--arrivals", type=int, default=32,
                        help="jobs in the arrival trace (default 32)")
    parser.add_argument("--rate", type=float, default=0.1,
                        help="mean arrivals per simulated second "
                        "(default 0.1)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scheduler", default="first-fit",
                        help="node-selection policy "
                        "(first-fit, best-fit, load-aware)")
    parser.add_argument("--strategy", default="misses-0%",
                        choices=STRATEGY_NAMES,
                        help="object-selection strategy the advisor "
                        "packs each grant with (default misses-0%%)")
    parser.add_argument("--apps", default=None, metavar="A,B,...",
                        help="comma-separated workload mix (default: "
                        "all Table I apps plus phaseshift)")
    parser.add_argument("--min-grant-fraction", type=float, default=0.5,
                        metavar="F",
                        help="smallest acceptable grant as a fraction "
                        "of the demand (default 0.5)")
    parser.add_argument("--hysteresis", type=int, default=1,
                        metavar="N",
                        help="re-advise confirmations before a "
                        "survivor's sites actually move (default 1)")
    parser.add_argument("--migration-bw", type=parse_size, default=None,
                        metavar="BYTES/S",
                        help="tier-to-tier migration bandwidth "
                        "(default: the 10 GiB/s page-migration "
                        "constant)")
    parser.add_argument("--journal", type=Path, default=None,
                        help="write the byte-deterministic decision "
                        "journal to this file (what CI diffs)")
    parser.add_argument("--report", type=Path, default=None,
                        help="write the full ClusterReport JSON here")
    parser.add_argument("--fault-plan", type=Path, default=None,
                        help="FaultPlan JSON with cluster fault kinds "
                        "(node_crash/drain/recover, tenant_kill, "
                        "overload burst)")
    parser.add_argument("--rescue-budget", type=parse_size, default=None,
                        metavar="BYTES",
                        help="HBW each surviving node contributes to "
                        "evacuating one crash's victims (default: "
                        "unlimited)")
    parser.add_argument("--max-queue-depth", type=int, default=None,
                        metavar="N",
                        help="backpressure: shed arrivals once the "
                        "admission queue holds N requests")
    parser.add_argument("--max-queue-delay", type=float, default=None,
                        metavar="SECONDS",
                        help="backpressure: shed queued requests that "
                        "wait longer than this (simulated seconds)")
    parser.add_argument("--down-grant-fraction", type=float, default=None,
                        metavar="F",
                        help="backpressure: retry failed admissions at "
                        "F*demand before queueing")
    parser.add_argument("--checkpoint-dir", type=Path, default=None,
                        help="write a CRC-checksummed checkpoint here "
                        "after every event batch (SIGKILL-safe)")
    parser.add_argument("--resume", action="store_true",
                        help="resume from --checkpoint-dir instead of "
                        "starting over (same session only)")
    parser.add_argument("--checkpoint-every", type=int, default=1,
                        metavar="N",
                        help="events per checkpoint batch (default 1)")
    parser.add_argument("--event-pause", type=float, default=0.0,
                        metavar="SECONDS",
                        help="wall-clock sleep after each event (chaos "
                        "harness hook; simulated time is unaffected)")

    def run(args) -> None:
        from repro.cluster import ArrivalStream, ClusterSim, make_fleet
        from repro.cluster.backpressure import BackpressurePolicy
        from repro.ioutil import atomic_write_text
        from repro.machine.performance import MIGRATION_BANDWIDTH_DEFAULT

        mix_kwargs = {}
        if args.apps is not None:
            mix_kwargs["mix"] = tuple(
                name.strip() for name in args.apps.split(",") if name.strip()
            )
        stream = ArrivalStream(
            seed=args.seed,
            n_arrivals=args.arrivals,
            rate=args.rate,
            **mix_kwargs,
        )
        fault_plan = (
            FaultPlan.load(args.fault_plan)
            if args.fault_plan is not None
            else None
        )
        backpressure = BackpressurePolicy(
            max_queue_depth=args.max_queue_depth,
            max_queue_delay=args.max_queue_delay,
            down_grant_fraction=args.down_grant_fraction,
        )
        sim = ClusterSim(
            make_fleet(args.nodes, args.node_budget),
            stream,
            scheduler=args.scheduler,
            strategy=args.strategy,
            min_grant_fraction=args.min_grant_fraction,
            confirm_windows=args.hysteresis,
            migration_bandwidth=(
                float(args.migration_bw)
                if args.migration_bw is not None
                else MIGRATION_BANDWIDTH_DEFAULT
            ),
            fault_plan=fault_plan,
            backpressure=backpressure,
            rescue_budget=(
                int(args.rescue_budget)
                if args.rescue_budget is not None
                else None
            ),
            checkpoint_dir=(
                str(args.checkpoint_dir)
                if args.checkpoint_dir is not None
                else None
            ),
            resume=args.resume,
            checkpoint_every=args.checkpoint_every,
            event_pause_seconds=args.event_pause,
        )
        report = sim.run()
        print(f"{args.nodes} nodes x {args.arrivals} arrivals "
              f"({sim.scheduler_name}/{args.strategy}, seed {args.seed}): "
              f"{len(report.tenants)} completed, "
              f"{report.n_rejected} rejected")
        if report.n_casualties or report.n_rescued or report.n_shed:
            print(f"fault domain: {report.n_rescued} rescued, "
                  f"{report.n_casualties} casualties, "
                  f"{report.n_shed} shed "
                  f"({report.n_never_fits} never-fit), accounting "
                  f"{'reconciled' if report.accounted else 'BROKEN'}")
        print(f"aggregate FOM {report.aggregate_fom:.1f} "
              f"(isolated bound {report.aggregate_fom_isolated:.1f})")
        print(f"fairness (Jain) {report.fairness:.4f}  "
              f"fragmentation mean {report.mean_fragmentation:.4f} "
              f"final {report.final_fragmentation:.4f}")
        print(f"queueing delay {report.mean_queueing_delay:.2f}s  "
              f"makespan {report.makespan:.1f}s  "
              f"migrated {report.migrated_bytes} B  "
              f"evicted {report.evicted_bytes} B")
        if args.journal is not None:
            atomic_write_text(args.journal, sim.journal_text())
            print(f"journal -> {args.journal}")
        if args.report is not None:
            atomic_write_text(args.report, report.to_json())
            print(f"report -> {args.report}")

    return _run(parser, run, argv)
