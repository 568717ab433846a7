"""Stage benchmarks, the JSON trajectory and the regression gate.

Each benchmark times a vectorised kernel and (where one exists) its
per-access reference on the *same* fixed-seed workload, asserting the
two produce identical results while the clock runs — a benchmark whose
fast path diverges from the oracle aborts instead of reporting a
meaningless speedup. Timings are folded into a
:class:`repro.pipeline.metrics.StageMetrics` (counter + wall seconds
per ``bench:<stage>`` name) so the sweep layer's reporting understands
them, and serialised to ``BENCH_*.json`` for the committed trajectory.

The regression gate (:func:`compare_baseline`) compares throughput per
(stage, scenario, mode) against a baseline file: a stage that lost
more than ``max_regression`` of its baseline throughput fails the run.
Quick and full records never cross-compare — chunk-level fixed costs
make small-stream throughput systematically lower.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from repro.analysis.objects import ObjectKey, ObjectKind
from repro.analysis.profile import ObjectProfile, ProfileSet
from repro.analysis.vectorattr import attribute_samples_vector
from repro._oracles import (
    access_stream_reference,
    attribute_samples,
    feed_reference,
    make_scoring_workload,
    predict_share_reference,
    sample_reference,
    windowed_cost_reference,
)
from repro.advisor.report import PlacementEntry, PlacementReport
from repro.apps.cgpop import CGPOP
from repro.bench.scenarios import make_attribution_trace, make_stream
from repro.cache.hierarchy import CacheHierarchy, CacheLevelSpec
from repro.cache.setassoc import SetAssociativeCache
from repro.cache.vectorkernels import VectorSetAssociativeCache
from repro.errors import ReproError
from repro.machine.config import xeon_phi_7250
from repro.pebs.sampler import PebsSampler
from repro.pipeline.metrics import StageMetrics
from repro.predict.replay import PredictorCalibration, TraceReplayPredictor
from repro.units import KIB, MIB


@dataclass(frozen=True, slots=True)
class BenchRecord:
    """One timed stage on one workload."""

    stage: str
    scenario: str
    mode: str  # "quick" | "full"
    n: int  # accesses / events / profiles processed
    seconds: float
    throughput: float  # n / seconds
    reference_seconds: float | None = None
    speedup: float | None = None  # reference_seconds / seconds

    def to_dict(self) -> dict:
        data = {
            "stage": self.stage,
            "scenario": self.scenario,
            "mode": self.mode,
            "n": self.n,
            "seconds": self.seconds,
            "throughput": self.throughput,
        }
        if self.reference_seconds is not None:
            data["reference_seconds"] = self.reference_seconds
        if self.speedup is not None:
            data["speedup"] = self.speedup
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "BenchRecord":
        return cls(
            stage=data["stage"],
            scenario=data["scenario"],
            mode=data.get("mode", "full"),
            n=int(data["n"]),
            seconds=float(data["seconds"]),
            throughput=float(data["throughput"]),
            reference_seconds=data.get("reference_seconds"),
            speedup=data.get("speedup"),
        )

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.stage, self.scenario, self.mode)


@dataclass
class BenchReport:
    """A full benchmark run: records plus provenance."""

    records: list[BenchRecord] = field(default_factory=list)
    mode: str = "full"
    seed: int = 0
    python: str = field(default_factory=platform.python_version)
    numpy: str = field(default_factory=lambda: np.__version__)
    metrics: StageMetrics = field(default_factory=StageMetrics)

    def record(self, rec: BenchRecord) -> None:
        self.records.append(rec)
        self.metrics.bump(f"bench:{rec.stage}")
        self.metrics.seconds[f"bench:{rec.stage}"] = (
            self.metrics.seconds.get(f"bench:{rec.stage}", 0.0) + rec.seconds
        )

    def get(self, stage: str, scenario: str | None = None) -> BenchRecord:
        for rec in self.records:
            if rec.stage == stage and scenario in (None, rec.scenario):
                return rec
        raise KeyError(f"no record for {stage}/{scenario}")

    def to_dict(self) -> dict:
        return {
            "schema": "repro-bench/1",
            "mode": self.mode,
            "seed": self.seed,
            "python": self.python,
            "numpy": self.numpy,
            "records": [r.to_dict() for r in self.records],
            "metrics": self.metrics.to_dict(),
        }

    def save(self, path: Path | str) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def from_dict(cls, data: dict) -> "BenchReport":
        report = cls(
            mode=data.get("mode", "full"),
            seed=int(data.get("seed", 0)),
            python=data.get("python", ""),
            numpy=data.get("numpy", ""),
            metrics=StageMetrics.from_dict(data.get("metrics", {})),
        )
        report.records = [
            BenchRecord.from_dict(r) for r in data.get("records", [])
        ]
        return report

    @classmethod
    def load(cls, path: Path | str) -> "BenchReport":
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ReproError(f"cannot read baseline {path}: {exc}") from exc
        return cls.from_dict(data)


def _time(fn: Callable[[], object], repeats: int) -> tuple[float, object]:
    """Best-of-``repeats`` wall time; returns (seconds, last result)."""
    best = float("inf")
    result = None
    for _ in range(max(repeats, 1)):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


# ---------------------------------------------------------------------------
# Stage benchmarks
# ---------------------------------------------------------------------------

#: Geometry of the benchmarked LLC: an 8 MiB 16-way cache — large
#: enough that the vectorised rounds run thousands of sets wide.
_LLC_CAPACITY = 8 * MIB
_LLC_WAYS = 16


def _bench_setassoc(
    report: BenchReport, scenario: str, n: int, seed: int, repeats: int
) -> None:
    addrs = make_stream(scenario, n, seed)
    ref = SetAssociativeCache(_LLC_CAPACITY, 64, _LLC_WAYS)
    ref_seconds, ref_hits = _time(
        lambda: access_stream_reference(ref, addrs), 1
    )
    vec_seconds, vec_hits = _time(
        lambda: VectorSetAssociativeCache(
            _LLC_CAPACITY, 64, _LLC_WAYS
        ).access_stream(addrs),
        repeats,
    )
    if not np.array_equal(ref_hits, vec_hits):
        raise ReproError(
            f"setassoc kernel diverged from the oracle on {scenario}"
        )
    report.record(
        BenchRecord(
            stage="cache_setassoc",
            scenario=scenario,
            mode=report.mode,
            n=n,
            seconds=vec_seconds,
            throughput=n / vec_seconds,
            reference_seconds=ref_seconds,
            speedup=ref_seconds / vec_seconds,
        )
    )


def _bench_directmap(
    report: BenchReport, scenario: str, n: int, seed: int, repeats: int
) -> None:
    from repro.cache.directmap import DirectMappedCache

    addrs = make_stream(scenario, n, seed)
    ref = SetAssociativeCache(_LLC_CAPACITY, 64, ways=1)
    ref_seconds, ref_hits = _time(
        lambda: access_stream_reference(ref, addrs), 1
    )
    vec_seconds, vec_hits = _time(
        lambda: DirectMappedCache(_LLC_CAPACITY, 64).access_stream(addrs),
        repeats,
    )
    if not np.array_equal(ref_hits, vec_hits):
        raise ReproError(
            f"direct-mapped kernel diverged from the 1-way oracle on "
            f"{scenario}"
        )
    report.record(
        BenchRecord(
            stage="cache_directmap",
            scenario=scenario,
            mode=report.mode,
            n=n,
            seconds=vec_seconds,
            throughput=n / vec_seconds,
            reference_seconds=ref_seconds,
            speedup=ref_seconds / vec_seconds,
        )
    )


def _bench_hierarchy(
    report: BenchReport, scenario: str, n: int, seed: int, repeats: int
) -> None:
    def specs():
        return dict(
            l1=CacheLevelSpec(capacity=32 * KIB, line_size=64, ways=8),
            llc=CacheLevelSpec(capacity=512 * KIB, line_size=64, ways=16),
        )

    addrs = make_stream(scenario, n, seed)
    ref_seconds, ref_miss = _time(
        lambda: feed_reference(CacheHierarchy(**specs()), addrs), 1
    )
    vec_seconds, vec_miss = _time(
        lambda: CacheHierarchy(**specs()).feed(addrs), repeats
    )
    if not np.array_equal(ref_miss, vec_miss):
        raise ReproError(
            f"hierarchy feed diverged from the oracle on {scenario}"
        )
    report.record(
        BenchRecord(
            stage="cache_hierarchy",
            scenario=scenario,
            mode=report.mode,
            n=n,
            seconds=vec_seconds,
            throughput=n / vec_seconds,
            reference_seconds=ref_seconds,
            speedup=ref_seconds / vec_seconds,
        )
    )


def _bench_pebs(
    report: BenchReport, scenario: str, n: int, seed: int, repeats: int
) -> None:
    period = 37589 if n >= 200_000 else 97
    addrs = make_stream(scenario, n, seed)
    times = np.arange(n, dtype=float)
    ref_seconds, ref_picks = _time(
        lambda: sample_reference(period, addrs), 1
    )
    vec_seconds, vec_picks = _time(
        lambda: PebsSampler(period=period).sample_positions(n), repeats
    )
    if list(vec_picks) != ref_picks:
        raise ReproError(
            f"sampler positions diverged from the countdown oracle on "
            f"{scenario}"
        )
    # Exercise the full array path once so attribution cost is real.
    PebsSampler(period=period).sample_chunk_arrays(addrs, times)
    report.record(
        BenchRecord(
            stage="pebs_sampler",
            scenario=scenario,
            mode=report.mode,
            n=n,
            seconds=vec_seconds,
            throughput=n / vec_seconds,
            reference_seconds=ref_seconds,
            speedup=ref_seconds / vec_seconds,
        )
    )


def _synthetic_profiles(
    n_objects: int, seed: int
) -> tuple[ProfileSet, PlacementReport]:
    rng = np.random.default_rng(seed)
    misses = rng.integers(1, 1000, size=n_objects)
    sizes = rng.integers(4 * KIB, 4 * MIB, size=n_objects)
    profiles = ProfileSet(
        profiles=[
            ObjectProfile(
                key=ObjectKey(
                    kind=ObjectKind.DYNAMIC,
                    identity=((f"alloc_{i}", "bench.c", int(i)),),
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
    report = PlacementReport(application="bench", strategy="density")
    for i in range(0, n_objects, 2):  # promote every other object
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


def _bench_replay(
    report: BenchReport, n_objects: int, seed: int, repeats: int
) -> None:
    profiles, placement = _synthetic_profiles(n_objects, seed)
    machine = xeon_phi_7250()
    predictor = TraceReplayPredictor(
        machine,
        PredictorCalibration(
            fom_ddr=1000.0, ddr_time=10.0, memory_bound_fraction=0.6
        ),
    )
    ref_seconds, ref_share = _time(
        lambda: predict_share_reference(profiles, placement), 1
    )
    vec_seconds, outcome = _time(
        lambda: predictor.predict(profiles, placement), repeats
    )
    if abs(outcome.promoted_miss_share - ref_share) > 1e-9:
        raise ReproError("replay predictor diverged from the scalar oracle")
    report.record(
        BenchRecord(
            stage="predict_replay",
            scenario="synthetic-objects",
            mode=report.mode,
            n=n_objects,
            seconds=vec_seconds,
            throughput=n_objects / vec_seconds,
            reference_seconds=ref_seconds,
            speedup=ref_seconds / vec_seconds,
        )
    )


def _bench_attribution(
    report: BenchReport, n: int, seed: int, repeats: int
) -> None:
    from repro.trace.columnar import ColumnarTrace

    trace = make_attribution_trace(n, seed)
    columnar = ColumnarTrace.from_tracefile(trace)
    # The oracle replays dataclass events one at a time — time it once
    # (it *is* the slow path); the vectorised kernel consumes the
    # prebuilt columnar view, matching how paramedir runs it.
    ref_seconds, ref_result = _time(lambda: attribute_samples(trace), 1)
    vec_seconds, vec_result = _time(
        lambda: attribute_samples_vector(columnar), repeats
    )
    if vec_result != ref_result:
        raise ReproError(
            "vectorised attribution diverged from the replay oracle"
        )
    report.record(
        BenchRecord(
            stage="analysis_attribution",
            scenario="alloc-sample-mix",
            mode=report.mode,
            n=n,
            seconds=vec_seconds,
            throughput=n / vec_seconds,
            reference_seconds=ref_seconds,
            speedup=ref_seconds / vec_seconds,
        )
    )


def _bench_online_readvise(
    report: BenchReport, n: int, seed: int, repeats: int
) -> None:
    """Windowed incremental attribution vs the one-shot batch pass.

    The online daemon advances a resumable cursor once per decision
    window; this stage measures what the windowing costs over a whole
    trace (16 cursor advances + snapshots) and asserts the final
    snapshot is bit-for-bit the batch result.
    """
    from repro.analysis.vectorattr import IncrementalAttributor
    from repro.trace.columnar import ColumnarTrace

    trace = make_attribution_trace(n, seed)
    columnar = ColumnarTrace.from_tracefile(trace)
    ref_seconds, batch = _time(
        lambda: attribute_samples_vector(columnar), repeats
    )
    n_windows = 16
    times = columnar.times
    boundaries = (
        np.linspace(times[0], times[-1], n_windows + 1)[1:-1]
        if times.size
        else np.zeros(0)
    )

    def windowed():
        attributor = IncrementalAttributor(columnar)
        for boundary in boundaries:
            attributor.advance_time(float(boundary))
            attributor.result()  # per-window snapshot, like the daemon
        attributor.advance_all()
        return attributor.result()

    vec_seconds, result = _time(windowed, repeats)
    if result != batch:
        raise ReproError(
            "windowed attribution diverged from the batch vector pass"
        )
    report.record(
        BenchRecord(
            stage="online_readvise",
            scenario=f"windowed-{n_windows}",
            mode=report.mode,
            n=n,
            seconds=vec_seconds,
            throughput=n / vec_seconds,
            reference_seconds=ref_seconds,
            speedup=ref_seconds / vec_seconds,
        )
    )


def _bench_windowed_scoring(
    report: BenchReport, n_windows: int, seed: int, repeats: int
) -> None:
    """Bisect schedule lookup vs the linear-rescan oracle.

    The cluster layer scores thousands of (truth, schedule) pairs, so
    ``windowed_cost``'s inner lookup is hot; this stage pins the
    bisect rewrite to the scan's exact ``RunCost`` while timing it.
    """
    from repro.online.scoring import windowed_cost

    n_entries = max(8, n_windows // 4)
    app, profiling, schedule = make_scoring_workload(
        n_windows, n_entries, seed
    )
    machine = xeon_phi_7250()
    ref_seconds, ref_cost = _time(
        lambda: windowed_cost_reference(app, machine, profiling, schedule),
        1,
    )
    vec_seconds, vec_cost = _time(
        lambda: windowed_cost(app, machine, profiling, schedule), repeats
    )
    if vec_cost != ref_cost:
        raise ReproError(
            "bisect windowed_cost diverged from the linear-scan oracle"
        )
    report.record(
        BenchRecord(
            stage="windowed_scoring",
            scenario=f"windows-{n_windows}",
            mode=report.mode,
            n=n_windows,
            seconds=vec_seconds,
            throughput=n_windows / vec_seconds,
            reference_seconds=ref_seconds,
            speedup=ref_seconds / vec_seconds,
        )
    )


def _bench_cluster_schedule(
    report: BenchReport, n_arrivals: int, seed: int, repeats: int
) -> None:
    """End-to-end cluster event loop on a fixed-seed fleet.

    No oracle exists (the simulator *is* the reference); instead the
    stage asserts the run's own invariants — contention charged
    (aggregate FOM bounded by the isolated sum) and a sane fairness
    index — while timing arrivals through the full admit / contend /
    depart / re-advise pipeline.
    """
    from repro.cluster import ArrivalStream, ClusterSim, make_fleet

    fleet = make_fleet(2, 320 * MIB)
    stream = ArrivalStream(
        seed=seed,
        n_arrivals=n_arrivals,
        rate=0.2,
        mix=("phaseshift", "minife", "cgpop"),
    )

    def run():
        sim = ClusterSim(fleet, stream)
        return sim.run()

    seconds, run_report = _time(run, repeats)
    if run_report.aggregate_fom > run_report.aggregate_fom_isolated:
        raise ReproError(
            "cluster bench: aggregate FOM exceeds the isolated bound "
            "(contention not charged)"
        )
    if not 0.0 <= run_report.fairness <= 1.0:
        raise ReproError(
            f"cluster bench: fairness {run_report.fairness} outside [0,1]"
        )
    report.record(
        BenchRecord(
            stage="cluster_schedule",
            scenario="fleet-2x320M",
            mode=report.mode,
            n=n_arrivals,
            seconds=seconds,
            throughput=n_arrivals / seconds,
        )
    )


class _SweepBenchApp(CGPOP):
    """Profile-heavy CGPOP variant for the sweep-throughput stage.

    The shared trace plane pays off exactly when the per-worker
    profiling run dominates a cell's cost, so the bench workload
    inflates the miss stream (scaled per mode via the instance
    attribute) while keeping the grid small. Module-level class: the
    pool pickles the instance into its workers.
    """

    name = "benchsweep"


def _private_rss_kib() -> int | None:
    """This process's private RSS in KiB, or None off-Linux."""
    total = 0
    try:
        with open("/proc/self/smaps_rollup") as fh:
            for line in fh:
                if line.startswith(
                    ("Private_Clean:", "Private_Dirty:", "Private_Hugetlb:")
                ):
                    total += int(line.split()[1])
    except OSError:
        return None
    return total


def _sweep_rss_probe(queue, app, machine, cell, seed, plane) -> None:
    """Forked probe: run one cell, report private RSS + any error.

    RSS is read while the cell's framework is still memoised, as in a
    pool worker; once freed, its NumPy columns are unmapped and only
    allocator residue would be left to measure.
    """
    from repro.parallel.sweep import _execute_cell

    memo: dict = {}
    payload = _execute_cell(
        app, machine, cell, seed, memo, None, 1, plane=plane
    )
    queue.put((_private_rss_kib(), payload[1]))


def _bench_sweep_rss(
    report: BenchReport, app, machine, grid, seed: int
) -> None:
    """Per-worker private RSS, with and without the shared plane.

    Four forked probes (matching the jobs=4 throughput stage) each
    execute one grid cell and read ``/proc/self/smaps_rollup``; fork
    keeps the interpreter's baseline copy-on-write-shared, so the
    measured private bytes are dominated by what the cell itself
    materialised — the whole profile (trace and ground truth)
    privately, or a zero-copy view of the plane. Skipped silently
    where smaps_rollup or the fork start method is unavailable
    (non-Linux).
    """
    import multiprocessing

    from repro.pipeline.experiment import enumerate_cells
    from repro.pipeline.framework import HybridMemoryFramework
    from repro.trace.shared import SharedTracePlane

    if _private_rss_kib() is None:
        return
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:
        return
    cells = [c for c in enumerate_cells(app, grid) if c.kind == "grid"][:4]
    profiling = HybridMemoryFramework(app, machine, seed=seed).profile()
    means: dict[str, float] = {}
    with SharedTracePlane() as plane:
        handle = plane.publish(
            "bench-sweep-rss", profiling.trace, profiling.ground_truth
        )
        for scenario, plane_handle in (("private", None), ("plane", handle)):
            queue = ctx.SimpleQueue()
            procs = [
                ctx.Process(
                    target=_sweep_rss_probe,
                    args=(queue, app, machine, cell, seed, plane_handle),
                )
                for cell in cells
            ]
            for proc in procs:
                proc.start()
            results = [queue.get() for _ in procs]
            for proc in procs:
                proc.join()
            errors = [error for _, error in results if error]
            if errors:
                raise ReproError(
                    f"sweep RSS probe ({scenario}) failed a cell:\n"
                    + errors[0]
                )
            kibs = [kib for kib, _ in results if kib is not None]
            if not kibs:
                return
            means[scenario] = sum(kibs) / len(kibs)
    if means["plane"] >= 0.7 * means["private"]:
        raise ReproError(
            f"shared plane did not keep worker RSS flat: "
            f"{means['plane']:.0f} KiB private with the plane vs "
            f"{means['private']:.0f} KiB without"
        )
    for scenario in ("private", "plane"):
        mean_kib = means[scenario]
        report.record(
            BenchRecord(
                stage="sweep_worker_rss",
                scenario=scenario,
                mode=report.mode,
                n=len(cells),
                # Encoded so the regression gate's throughput floor
                # catches RSS *growth*: throughput ~ 1/RSS.
                seconds=mean_kib / 1e6,
                throughput=1e6 / mean_kib,
                reference_seconds=(
                    means["private"] / 1e6 if scenario == "plane" else None
                ),
                speedup=(
                    means["private"] / mean_kib
                    if scenario == "plane"
                    else None
                ),
            )
        )


def _bench_sweep_throughput(
    report: BenchReport, stream_misses: int, seed: int
) -> None:
    """Pool sweep at jobs=4, without vs with the shared trace plane.

    The workload is profile-heavy (inflated miss stream, small grid):
    without the plane every worker profiles privately, with it the
    parent profiles once and workers attach zero-copy. Rows must be
    identical across the two paths — the stage aborts on divergence,
    like every other bench oracle — and the plane run must publish
    once and profile in no worker. Wall time of a 4-worker pool is too
    expensive to repeat, so each path is timed once.
    """
    from repro.parallel.sweep import run_sweep
    from repro.pipeline.experiment import ExperimentGrid, enumerate_cells

    app = _SweepBenchApp()
    app.stream_misses = stream_misses
    machine = xeon_phi_7250()
    grid = ExperimentGrid(
        budgets=(32 * MIB, 64 * MIB), strategies=("density", "misses-0%")
    )
    n_cells = len(enumerate_cells(app, grid))

    def sweep(shared_plane: bool):
        result = run_sweep(
            [app],
            machine=machine,
            grid=grid,
            jobs=4,
            seed=seed,
            shared_plane=shared_plane,
        )
        if result.failures or result.skipped:
            raise ReproError(
                f"sweep bench cells failed (shared_plane={shared_plane})"
            )
        return sorted(
            (o.cell.key, o.row) for o in result.outcomes
        ), result.metrics

    base_seconds, (base_rows, _) = _time(lambda: sweep(False), 1)
    plane_seconds, (plane_rows, plane_metrics) = _time(
        lambda: sweep(True), 1
    )
    if base_rows != plane_rows:
        raise ReproError(
            "shared-plane sweep rows diverged from the private-profile "
            "pool sweep"
        )
    # Both paths profile straight into columns, so the private pool is
    # no slow baseline to beat by a fixed ratio; what the plane does
    # guarantee is one parent-side publish per app and no worker
    # profiling. Its throughput stays under the baseline gate.
    publishes = plane_metrics.counters.get("plane_publish", 0)
    if publishes != 1:
        raise ReproError(
            f"shared-plane sweep published {publishes} planes for 1 app"
        )
    # The parent's publishing profile is merged into the roll-up.
    worker_profiles = plane_metrics.count("profile") - publishes
    if worker_profiles:
        raise ReproError(
            f"shared-plane sweep workers profiled {worker_profiles} times"
        )
    speedup = base_seconds / plane_seconds
    report.record(
        BenchRecord(
            stage="sweep_throughput",
            scenario="pool-jobs4",
            mode=report.mode,
            n=n_cells,
            seconds=base_seconds,
            throughput=n_cells / base_seconds,
        )
    )
    report.record(
        BenchRecord(
            stage="sweep_throughput",
            scenario="plane-jobs4",
            mode=report.mode,
            n=n_cells,
            seconds=plane_seconds,
            throughput=n_cells / plane_seconds,
            reference_seconds=base_seconds,
            speedup=speedup,
        )
    )
    _bench_sweep_rss(report, app, machine, grid, seed)


# ---------------------------------------------------------------------------
# Entry point + regression gate
# ---------------------------------------------------------------------------

#: (stage benchmark, scenarios it runs on). The hot/cold stream is the
#: representative workload; uniform keeps the adversarial number
#: honest in the trajectory.
_STREAM_STAGES = (
    (_bench_setassoc, ("hotcold", "uniform", "strided")),
    (_bench_directmap, ("hotcold", "uniform")),
    (_bench_hierarchy, ("hotcold",)),
    (_bench_pebs, ("uniform",)),
)


def run_bench(
    quick: bool = False, seed: int = 0, repeats: int | None = None
) -> BenchReport:
    """Run every stage benchmark; returns the populated report.

    ``quick`` shrinks streams ~10x (CI smoke); ``full`` is the
    committed-trajectory configuration with the 1M-access streams.
    """
    mode = "quick" if quick else "full"
    # Quick streams stay long enough (~10ms of kernel time) that one
    # scheduler blip cannot swing the measured throughput by tens of
    # percent — the regression gate depends on that stability.
    n_stream = 200_000 if quick else 1_000_000
    n_hierarchy = 20_000 if quick else 200_000
    n_objects = 2_000 if quick else 20_000
    n_attr = 100_000 if quick else 1_000_000
    # Quick streams are noisy (chunk fixed costs, timer resolution,
    # transient machine load); best-of-7 spreads the timing window so
    # the CI gate does not trip on a single busy stretch.
    if repeats is None:
        repeats = 7 if quick else 3
    report = BenchReport(mode=mode, seed=seed)
    for bench, scenarios in _STREAM_STAGES:
        n = n_hierarchy if bench is _bench_hierarchy else n_stream
        for scenario in scenarios:
            bench(report, scenario, n, seed, repeats)
    _bench_replay(report, n_objects, seed, repeats)
    # The oracle replay dominates this stage's wall time; one timed
    # pass keeps the quick (CI) configuration honest but cheap.
    _bench_attribution(report, n_attr, seed, repeats=1 if quick else repeats)
    _bench_online_readvise(
        report, n_attr, seed, repeats=1 if quick else repeats
    )
    n_windows = 2_000 if quick else 20_000
    _bench_windowed_scoring(report, n_windows, seed, repeats)
    n_arrivals = 24 if quick else 96
    _bench_cluster_schedule(
        report, n_arrivals, seed, repeats=1 if quick else min(repeats, 3)
    )
    n_misses = 500_000 if quick else 2_000_000
    _bench_sweep_throughput(report, n_misses, seed)
    return report


def compare_baseline(
    current: BenchReport,
    baseline: BenchReport,
    max_regression: float = 0.25,
) -> list[str]:
    """Regression check: throughput per (stage, scenario, mode).

    Returns human-readable failure strings; empty means the gate
    passes. Records without a matching baseline key are ignored (new
    stages are not regressions).
    """
    if not 0.0 <= max_regression < 1.0:
        raise ReproError(
            f"max regression must be in [0, 1), got {max_regression}"
        )
    by_key = {rec.key: rec for rec in baseline.records}
    failures = []
    for rec in current.records:
        base = by_key.get(rec.key)
        if base is None or base.throughput <= 0:
            continue
        floor = base.throughput * (1.0 - max_regression)
        if rec.throughput < floor:
            lost = 1.0 - rec.throughput / base.throughput
            failures.append(
                f"{rec.stage}/{rec.scenario} [{rec.mode}]: "
                f"{rec.throughput:,.0f}/s is {lost:.0%} below the "
                f"baseline {base.throughput:,.0f}/s "
                f"(allowed {max_regression:.0%})"
            )
    return failures
