"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fig4 --seed 1 --seconds 20 --trace 0

Run from the repository root. The program under test is imported from
``src/``. With ``--trace 0`` the last line of standard output is a JSON
object holding the end-to-end metrics; with ``--trace 1`` it holds the
per-layer breakdown of a traced run, and the spans are written under
``.bench_out/spans/``. Lines before it, starting with ``#``, are
diagnostics: operation counts, the latency tail and the host-speed
probe. See ``perfbench/README.md`` for what each workload does.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

#: Fresh processes timed from start to their first timed operation;
#: ``setup_s`` is their median.
COLD_STARTS = 3
#: Iterations of the host-speed probe: a fixed pure-Python loop, timed
#: before the first round, after every round and in every cold start.
PROBE_ITERATIONS = 250_000
#: The probe's time on the reference host in its fast state. Every
#: reported timing is scaled by this over the probe's time next to it,
#: i.e. given at the reference host's speed (see README, "Host speed").
REFERENCE_PROBE_S = 0.030
#: Fewest operations for which a latency tail is reported: the tail is
#: the highest percentile with ten operations beyond it.
MIN_TAIL_OPS = 40
TAIL_BEYOND = 10

PER_LAYER_SELF = (
    "apps.profile",
    "pebs.sample",
    "trace.record",
    "trace.to_columnar",
    "trace.plane.publish",
    "analysis.attribute",
    "analysis.window.advance",
    "analysis.window.snapshot",
    "advisor.advise",
    "placement.replay",
    "placement.cache_mode",
    "machine.cost",
    "online.session",
    "online.score",
    "cluster.run",
    "cluster.schedule",
    "cluster.extent",
    "parallel.sweep",
    "parallel.journal",
    "parallel.cache",
    "pipeline",
)
PER_LAYER_CALLS = (
    "trace.to_columnar",
    "advisor.advise",
    "machine.cost",
    "cluster.schedule",
)


def host_probe(iterations: int = PROBE_ITERATIONS) -> float:
    """Seconds a fixed pure-Python loop takes on this host now."""
    start = time.perf_counter()
    acc = 0
    for i in range(iterations):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


def pool_probe() -> float:
    """The probe's time on every CPU this process may use, one after the
    other, combined as a harmonic mean: the speed of a pool that shares
    its work among them. The host slows its vCPUs apart from each
    other, so one probe on the parent's CPU does not tell how fast a
    pool sweep runs."""
    cpus = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(host_probe())
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.harmonic_mean(times)


def speed_probe(workload) -> float:
    """The probe that matches how the workload's operations use the
    CPUs."""
    return pool_probe() if workload.uses_every_cpu else host_probe()


def speed_scale(probe_before: float, probe_after: float) -> float:
    """Factor that turns wall seconds measured between two probes into
    seconds at the reference host's speed."""
    return REFERENCE_PROBE_S / ((probe_before + probe_after) / 2)


def cold_setup_seconds(
    workload: str, seed: int, scratch: Path
) -> tuple[float, float]:
    """Median over :data:`COLD_STARTS` fresh interpreters of the time
    from each one's start to the point where its first timed operation
    would begin (imports, inputs, set-up profiling and the warm-up):
    (at reference speed, as the clock read). Each is scaled by the
    probe the fresh process takes right at that point."""
    scaled, raw = [], []
    for k in range(COLD_STARTS):
        start = time.perf_counter()
        proc = subprocess.run(
            [
                sys.executable, str(HERE / "coldstart.py"),
                workload, str(seed), str(scratch / f"cold-{k}"),
            ],
            check=True,
            capture_output=True,
            text=True,
        )
        ready, probe = map(float, proc.stdout.split()[-2:])
        raw.append(ready - start)
        scaled.append((ready - start) * speed_scale(probe, probe))
    return statistics.median(scaled), statistics.median(raw)


def peak_rss_mib(include_children: bool) -> float:
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        # The largest waited-for child: the biggest pool worker. Read
        # before any cold-start probe runs, which would count too.
        rss += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return rss / 1024.0


class Tally:
    """What one timed loop measured. Timings are kept at the reference
    host's speed (each round's wall seconds times the
    :func:`speed_scale` of the probes around it) and, for the
    diagnostic line, as the clock read them."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.busy = 0.0
        self.raw_busy = 0.0
        self.latencies: list[float] = []
        # Latencies of the completed operations of each input slot of a
        # round (operation index modulo the round size).
        self.by_slot: dict[int, list[float]] = defaultdict(list)
        self.raw_by_slot: dict[int, list[float]] = defaultdict(list)
        self.rounds = 0
        self.probes: list[float] = []
        self.ratios: list[float] = []
        self.counts: dict[str, float] = defaultdict(float)

    def add_round(
        self, busy: float, done: list[tuple[int, float]], scale: float
    ) -> None:
        """One round: its timed wall seconds, (slot, seconds) of each
        completed operation, and its speed scale."""
        self.rounds += 1
        self.busy += busy * scale
        self.raw_busy += busy
        for slot, seconds in done:
            self.latencies.append(seconds * scale)
            self.by_slot[slot].append(seconds * scale)
            self.raw_by_slot[slot].append(seconds)

    @property
    def ops_per_s(self) -> float:
        """Completed operations per timed second over the whole run. A
        mean over the run, not a median over parts of it, so a slow
        stretch weighs by its share of the run."""
        return len(self.latencies) / self.busy

    @property
    def op_p50_ms(self) -> float:
        return _slot_p50_ms(self.by_slot)

    def raw_line(self) -> str:
        return (
            f"ops_per_s={len(self.latencies) / self.raw_busy:.4f} "
            f"op_p50_ms={_slot_p50_ms(self.raw_by_slot):.4f}"
        )


def _slot_p50_ms(by_slot: dict[int, list[float]]) -> float:
    """Median latency of each input slot, combined over the slots by
    geometric mean. A round mixes inputs of very different cost (a
    lulesh row takes ten times a minife row), so the median of the
    pooled latencies would fall in the gap between two inputs' costs
    and swing with a single operation."""
    return statistics.geometric_mean(
        [statistics.median(v) * 1e3 for v in by_slot.values()]
    )


def timed_loop(workload, seconds: float, recorder) -> Tally:
    """Whole rounds of operations until ``seconds`` have passed and the
    workload's ``fom_rounds`` are done, with a host-speed probe before
    the first round and after every round."""
    tally = Tally()
    tally.probes.append(speed_probe(workload))
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        busy, done = 0.0, []
        for slot in range(workload.round_size):
            inputs = workload.prepare(index)
            if recorder is not None:
                recorder.begin_op()
            start = time.perf_counter()
            try:
                output = workload.run_op(inputs)
                errors = None
            except Exception:
                output = None
                errors = [traceback.format_exc()]
            elapsed = time.perf_counter() - start
            if recorder is not None:
                recorder.end_op()
            tally.attempted += 1
            busy += elapsed
            if errors is None:
                errors = workload.check(output)
            if errors:
                tally.failed += 1
                for error in errors[:3]:
                    print(f"# op {index} failed: {error}", file=sys.stderr)
            else:
                done.append((slot, elapsed))
                if index < workload.fom_rounds * workload.round_size:
                    tally.ratios += workload.fom_ratios(output)
                for name, value in workload.layer_counts(output).items():
                    tally.counts[name] += value
            if output is not None:
                workload.cleanup(output)
            index += 1
        tally.probes.append(speed_probe(workload))
        tally.add_round(busy, done, speed_scale(*tally.probes[-2:]))
        if (
            time.perf_counter() >= deadline
            and tally.rounds >= workload.fom_rounds
        ):
            return tally


def tail_ms(latencies: list[float]) -> tuple[float, float] | None:
    """(percentile, ms) of the highest percentile with ten operations
    beyond it; None below :data:`MIN_TAIL_OPS` operations."""
    n = len(latencies)
    if n < MIN_TAIL_OPS:
        return None
    ordered = sorted(latencies)
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1] * 1e3


def layer_metrics(recorder, tally: Tally) -> dict[str, float]:
    n = len(recorder.op_seconds)
    metrics = {}
    for layer in PER_LAYER_SELF:
        metrics[f"{layer}.self_s"] = recorder.self_s.get(layer, 0.0) / n
    for layer in PER_LAYER_CALLS:
        metrics[f"{layer}.calls"] = recorder.calls.get(layer, 0) / n
    eligible = recorder.counts.get("interpose.size_eligible", 0)
    metrics["interpose.match_yield"] = (
        recorder.counts.get("interpose.matched", 0) / eligible
        if eligible else 0.0
    )
    metrics["online.decision_p50_ms"] = (
        statistics.median(recorder.decisions) * 1e3
        if recorder.decisions else 0.0
    )
    calls = recorder.calls.get("cluster.schedule", 0)
    metrics["cluster.admit_yield"] = (
        recorder.counts.get("cluster.schedule.placed", 0) / calls
        if calls else 0.0
    )
    completed = len(tally.latencies)
    for name in (
        "cluster.queue_delay_s",
        "parallel.worker_stage_s",
        "parallel.plane_fallbacks",
    ):
        metrics[name] = tally.counts.get(name, 0.0) / completed
    metrics["parallel.wait_s"] = recorder.self_s.get("parallel.wait", 0.0) / n
    metrics["unattributed_s"] = (
        sum(recorder.op_seconds) - sum(recorder.op_covered)
    ) / n
    return metrics


def _count_interposer(recorder, replay) -> None:
    stats = getattr(replay.hook, "stats", None)
    if stats is not None and hasattr(stats, "calls_size_eligible"):
        recorder.count("interpose.size_eligible", stats.calls_size_eligible)
        recorder.count("interpose.matched", stats.calls_matched)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import spans
    import workloads
    from workloads import geomean

    if args.workload not in workloads.WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; "
            f"have {sorted(workloads.WORKLOADS)}"
        )
    probe_before = host_probe()

    scratch = ROOT / ".bench_out" / f"run-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    (scratch / "tmp").mkdir(parents=True)
    # Sweep trace planes and atomic-write temporaries stay in the tree.
    tempfile.tempdir = str(scratch / "tmp")
    recorder = spans.SpanRecorder() if args.trace else None
    correct = True
    try:
        workload = workloads.WORKLOADS[args.workload](
            args.seed, recorder, str(scratch)
        )
        workload.setup()
        for output in workload.warm_up():
            errors = workload.check(output)
            workload.cleanup(output)
            if errors:
                correct = False
                print(f"# warm-up failed: {errors[:3]}", file=sys.stderr)

        if args.trace:
            untraced = timed_loop(workload, args.seconds / 2, None)
            remove = spans.instrument(
                recorder, {"placement.replay": _count_interposer}
            )
            try:
                tally = timed_loop(workload, args.seconds / 2, recorder)
            finally:
                remove()
        else:
            tally = timed_loop(workload, args.seconds, None)
        probe_after = host_probe()
        rss_mib = peak_rss_mib(args.workload == "sweep")
        if not args.trace:
            setup_s, raw_setup_s = cold_setup_seconds(
                args.workload, args.seed, scratch
            )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if not tally.latencies or not tally.ratios:
        print("error: no operation completed", file=sys.stderr)
        return 1
    attempted, failed = tally.attempted, tally.failed
    if args.trace:
        attempted += untraced.attempted
        failed += untraced.failed
    print(
        f"# {args.workload} seed={args.seed} attempted={attempted} "
        f"failed={failed} completed={attempted - failed}"
    )
    # The traced run's tail comes from its untraced half.
    latencies = (untraced if args.trace else tally).latencies
    tail = tail_ms(latencies)
    print(
        "# op_tail_ms: "
        + (
            f"p{tail[0]:.2f} of {len(latencies)} ops = {tail[1]:.4f}"
            if tail
            else f"not reported ({len(latencies)} ops < {MIN_TAIL_OPS})"
        )
    )
    probes = tally.probes
    print(
        f"# host probe ({PROBE_ITERATIONS} iterations, reference "
        f"{REFERENCE_PROBE_S} s): before={probe_before:.4f} s "
        f"after={probe_after:.4f} s; around the {len(probes) - 1} timed "
        f"rounds median={statistics.median(probes):.4f} s "
        f"min={min(probes):.4f} s max={max(probes):.4f} s"
    )
    if args.trace:
        metrics = layer_metrics(recorder, tally)
        overhead = tally.ops_per_s - untraced.ops_per_s
        print(
            f"# tracing overhead: traced {tally.ops_per_s:.4f} - untraced "
            f"{untraced.ops_per_s:.4f} = {overhead:.4f} ops/s"
        )
        path = ROOT / ".bench_out" / "spans" / (
            f"{args.workload}-seed{args.seed}.jsonl"
        )
        recorder.dump(str(path), {"workload": args.workload, "seed": args.seed})
        print(f"# {len(recorder.spans)} spans written to {path.relative_to(ROOT)}")
        result = {
            name: {"value": value, "unit": _layer_unit(name)}
            for name, value in metrics.items()
        }
    else:
        print(
            f"# as the clock read: setup_s={raw_setup_s:.4f} "
            + tally.raw_line()
        )
        result = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": tally.ops_per_s, "unit": "1/s"},
            "op_p50_ms": {"value": tally.op_p50_ms, "unit": "ms"},
            "peak_rss_mib": {
                "value": rss_mib,
                "unit": "MiB",
            },
            "fom_gain": {"value": geomean(tally.ratios), "unit": "ratio"},
        }
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": result,
            }
        )
    )
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith(".calls") or name == "parallel.plane_fallbacks":
        return "count"
    if name.endswith("_yield"):
        return "ratio"
    if name.endswith("_ms"):
        return "ms"
    return "s"


if __name__ == "__main__":
    sys.exit(main())
