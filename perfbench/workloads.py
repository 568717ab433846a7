"""The four benchmark workloads and the checks on their outputs.

Each workload builds its inputs from the run's seed, times one
*operation* at a time, and checks every operation's output against a
property the method must have or a figure computed apart from the
program. An operation whose check fails is counted failed and the run
goes on.

Operations come in fixed *rounds*; a run always attempts whole rounds,
and ``fom_gain`` is taken from the first ``fom_rounds`` rounds only
(which every run attempts, however short), so it repeats
exactly for a fixed seed whatever the run length.
"""

from __future__ import annotations

import math
import os
import re
import shutil
import zlib

import numpy as np

from repro.analysis.objects import ObjectKind
from repro.apps import APP_NAMES, get_app
from repro.cluster.arrivals import ArrivalStream
from repro.cluster.node import make_fleet
from repro.cluster.scheduler import get_scheduler
from repro.cluster.simulator import ClusterSim
from repro.online.daemon import OnlineConfig
from repro.parallel.sweep import run_sweep
from repro.pipeline.framework import HybridMemoryFramework
from repro.trace.shared import SharedTracePlane, attach_plane
from repro.trace.tracer import TracerConfig
from repro.units import MIB

#: Standard deviations of sampling noise a site's sample count may
#: stray from ``true misses / period`` (see :func:`check_attribution`).
SAMPLING_SIGMAS = 5.0
#: Relative slack on float equalities that the model computes in one
#: closed form (the DDR anchor).
REL_TOL = 1e-9
#: First operation index of the untimed warm-up round: its inputs are
#: drawn apart from every timed operation's.
WARM_UP_INDEX = 1_000_000


def derive_seed(seed: int, workload: str, index: int) -> int:
    """Deterministic per-operation input seed."""
    tag = zlib.crc32(workload.encode())
    return int(np.random.SeedSequence([seed, tag, index]).generate_state(1)[0])


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


# ---------------------------------------------------------------------------
# shared checks
# ---------------------------------------------------------------------------


def attributed_profile(app, seed: int, via_plane: bool):
    """The profile an operation attributed and the ground truth beside
    it, made again outside the timed region through the same path (the
    run is deterministic for a fixed seed).

    Without ``via_plane`` that is the default row-mode profile, which
    the in-process sweep runs. With it, it is the pool sweep's path:
    the parent's ``columnar_samples`` profile, published on an mmap
    trace plane and attached back the way a worker attaches it.
    """
    if not via_plane:
        framework = HybridMemoryFramework(app, seed=seed)
        return framework.analyze(), framework.profile().ground_truth
    tracer_config = TracerConfig(
        sampling_period=app.sampling_period, columnar_samples=True
    )
    run = HybridMemoryFramework(
        app, tracer_config=tracer_config, seed=seed
    ).profile()
    with SharedTracePlane(backend="mmap") as plane:
        handle = plane.publish(
            app.name, run.tracer.columnar_trace(), run.ground_truth
        )
        shared = attach_plane(handle)
        try:
            framework = HybridMemoryFramework.from_shared_profile(
                app, None, shared, seed=seed
            )
            return framework.analyze(), framework.profile().ground_truth
        finally:
            shared.close()


def check_attribution(app, seed: int, via_plane: bool = False) -> list[str]:
    """Each object's sampled misses x period against the misses the app
    model generated.

    The sampler keeps one miss in ``period``; a site with ``m`` true
    misses expects ``n = m / period`` samples with a thinning standard
    deviation of ``sqrt(n (1 - 1/period))``. A count off by more than
    :data:`SAMPLING_SIGMAS` of those, plus one sample of rounding, is a
    wrong attribution.
    """
    profiles, truth = attributed_profile(app, seed, via_plane)
    period = profiles.sampling_period
    site_of = app.key_to_site_name()
    sampled: dict[str, int] = {}
    errors = []
    for profile in profiles:
        kind = profile.key.kind
        if kind == ObjectKind.DYNAMIC:
            site = site_of.get(profile.key.identity)
            if site is None:
                errors.append(f"{app.name}: samples on unknown stack")
                continue
        elif kind == ObjectKind.STATIC:
            site = profile.key.identity
        else:
            continue
        sampled[site] = sampled.get(site, 0) + profile.sampled_misses
    sites = set(sampled) | {s for s in truth.misses_by_site if s != "<stack>"}
    for site in sorted(sites):
        expected = truth.misses_by_site.get(site, 0) / period
        tolerance = (
            SAMPLING_SIGMAS * math.sqrt(expected * (1 - 1 / period)) + 1
        )
        got = sampled.get(site, 0)
        if abs(got - expected) > tolerance:
            errors.append(
                f"{app.name} seed {seed}: {site} sampled {got} x {period}, "
                f"model generated {expected * period:.0f} misses"
            )
    return errors


def check_rows(app, rows: dict) -> list[str]:
    """Figure 4 row checks: every cell ran, DDR equals the calibrated
    anchor, and no framework cell used more MCDRAM than its budget."""
    errors = []
    if len(rows) != 20:
        errors.append(f"{app.name}: {len(rows)} of 20 cells produced a row")
    fom_ddr = app.calibration.fom_ddr
    for cell, row in rows.items():
        if cell.kind == "baseline":
            if cell.label == "DDR" and not math.isclose(
                row.fom, fom_ddr, rel_tol=REL_TOL
            ):
                errors.append(
                    f"{app.name}: DDR FOM {row.fom} != anchor {fom_ddr}"
                )
        elif row.hwm_bytes > cell.budget_bytes:
            errors.append(
                f"{app.name} {cell.label}@{cell.budget_bytes}: "
                f"HWM {row.hwm_bytes} over budget"
            )
    return errors


def grid_fom_ratios(rows: dict) -> list[float]:
    ddr = next(r for c, r in rows.items() if c.label == "DDR")
    return [r.fom / ddr.fom for c, r in rows.items() if c.kind == "grid"]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    """One input mix: set-up, one operation, its checks."""

    name = ""
    #: Operations per round.
    round_size = 1
    #: Leading rounds whose outputs give ``fom_gain``.
    fom_rounds = 1
    #: Whether an operation keeps every CPU busy (a process pool), so
    #: that the host-speed probe must time each of them.
    uses_every_cpu = False

    def __init__(self, seed: int, recorder=None, scratch: str = "") -> None:
        self.seed = seed
        self.recorder = recorder
        self.scratch = scratch

    def setup(self) -> None:
        """Generate inputs and profile what the operations reuse."""

    def warm_up(self) -> list:
        """Run one untimed round, so that every input slot of a round
        has paid its first-call costs (an app's first row, a
        framework's analysis memo) before timing starts; returns the
        outputs for checking."""
        return [
            self.run_op(self.prepare(WARM_UP_INDEX + k))
            for k in range(self.round_size)
        ]

    def prepare(self, index: int):
        """Inputs of operation ``index`` (untimed)."""
        return index

    def run_op(self, inputs):
        raise NotImplementedError

    def check(self, output) -> list[str]:
        raise NotImplementedError

    def fom_ratios(self, output) -> list[float]:
        raise NotImplementedError

    def layer_counts(self, output) -> dict[str, float]:
        """Per-layer figures read from an operation's output."""
        return {}

    def cleanup(self, output) -> None:
        """Release what an operation left behind (untimed)."""


class Fig4(Workload):
    """One Figure 4 row per operation: an app at one profiling seed."""

    name = "fig4"
    round_size = len(APP_NAMES)

    def prepare(self, index: int):
        app_name = APP_NAMES[index % len(APP_NAMES)]
        return get_app(app_name), derive_seed(self.seed, self.name, index)

    def run_op(self, inputs):
        app, seed = inputs
        return app, seed, run_sweep([app], jobs=1, seed=seed)

    def check(self, output) -> list[str]:
        app, seed, result = output
        return check_rows(app, result.rows(app.name)) + check_attribution(
            get_app(app.name), seed
        )

    def fom_ratios(self, output) -> list[float]:
        app, _, result = output
        return grid_fom_ratios(result.rows(app.name))

    def layer_counts(self, output) -> dict[str, float]:
        return sweep_counts(output[2])


def sweep_counts(result) -> dict[str, float]:
    metrics = result.metrics
    return {
        "parallel.worker_stage_s": sum(metrics.seconds.values()),
        "parallel.plane_fallbacks": metrics.counters.get("plane_fallback", 0),
    }


class Online(Workload):
    """One re-advising daemon session per operation."""

    name = "online"
    APPS = ("phaseshift", "lulesh", "hpcg", "nas-bt")
    BUDGETS = (32 * MIB, 128 * MIB)
    N_WINDOWS = 64
    round_size = len(APPS) * len(BUDGETS)

    def setup(self) -> None:
        self.frameworks = {}
        for k, name in enumerate(self.APPS):
            framework = HybridMemoryFramework(
                get_app(name), seed=derive_seed(self.seed, self.name, k)
            )
            framework.profile()
            self.frameworks[name] = framework
        self.config = OnlineConfig(n_windows=self.N_WINDOWS)

    def prepare(self, index: int):
        slot = index % self.round_size
        return (
            self.frameworks[self.APPS[slot // len(self.BUDGETS)]],
            self.BUDGETS[slot % len(self.BUDGETS)],
        )

    def run_op(self, inputs):
        framework, budget = inputs
        return framework, budget, framework.run_windowed(budget, self.config)

    def check(self, output) -> list[str]:
        framework, budget, outcome = output
        run = outcome.run
        app = framework.app
        errors = []
        if [d.index for d in run.decisions] != list(range(self.N_WINDOWS)):
            errors.append(
                f"{app.name}: {len(run.decisions)} decisions for "
                f"{self.N_WINDOWS} windows"
            )
        moved = sum(a.bytes_real for d in run.decisions for a in d.actions)
        if moved != run.migrated_bytes_real:
            errors.append(
                f"{app.name}: migrated {run.migrated_bytes_real} bytes, "
                f"actions sum to {moved}"
            )
        for d in run.decisions:
            placed = sum(app.find_object(site).size for site in d.applied)
            if placed > budget:
                errors.append(
                    f"{app.name} window {d.index}: {placed} bytes fast "
                    f"over budget {budget}"
                )
        return errors

    def fom_ratios(self, output) -> list[float]:
        outcome = output[2]
        return [outcome.online_fom / outcome.one_shot_fom]


class Cluster(Workload):
    """One seeded multi-tenant fleet run per operation."""

    name = "cluster"
    NODES = 4
    NODE_BUDGET = 512 * MIB
    ARRIVALS = 96
    #: Arrivals per simulated second: fast enough that a queue forms.
    RATE = 0.5
    SCHEDULER = "first-fit"
    round_size = 2
    #: ``fom_gain`` follows the arrival seed; sixteen fleet runs keep
    #: its seed-to-seed spread small.
    fom_rounds = 8

    def setup(self) -> None:
        self.fleet = make_fleet(self.NODES, self.NODE_BUDGET)
        policy = get_scheduler(self.SCHEDULER)
        if self.recorder is not None:
            policy = self.recorder.wrap(
                policy, "cluster.schedule", on_result=_count_admission
            )
            policy.__name__ = self.SCHEDULER
        self.scheduler = policy

    def prepare(self, index: int):
        return ArrivalStream(
            seed=derive_seed(self.seed, self.name, index),
            n_arrivals=self.ARRIVALS,
            rate=self.RATE,
        )

    def run_op(self, inputs):
        sim = ClusterSim(self.fleet, inputs, scheduler=self.scheduler)
        return sim, sim.run()

    def check(self, output) -> list[str]:
        sim, report = output
        errors = []
        ids = (
            [t.job_id for t in report.tenants]
            + [r.job_id for r in report.rejections]
            + [c.job_id for c in report.casualties]
        )
        if sorted(ids) != list(range(self.ARRIVALS)):
            errors.append(
                f"{self.ARRIVALS} arrivals but {len(report.tenants)} "
                f"completed + {len(report.rejections)} rejected + "
                f"{len(report.casualties)} casualties"
            )
        achieved = sum(t.fom_achieved for t in report.tenants)
        isolated = sum(t.fom_isolated for t in report.tenants)
        if achieved > isolated * (1 + REL_TOL):
            errors.append(f"aggregate FOM {achieved} over isolated {isolated}")
        if not 0.0 <= report.fairness <= 1.0:
            errors.append(f"fairness {report.fairness} outside [0, 1]")
        errors += check_node_budgets(sim.journal, self.NODE_BUDGET)
        return errors

    def fom_ratios(self, output) -> list[float]:
        report = output[1]
        return [report.aggregate_fom / report.aggregate_fom_isolated]

    def layer_counts(self, output) -> dict[str, float]:
        return {"cluster.queue_delay_s": output[1].mean_queueing_delay}


def _count_admission(recorder, node) -> None:
    recorder.count("cluster.schedule.placed", node is not None)


_ADMIT = re.compile(r"^t=\S+ admit job=(\d+) node=(\S+) grant=(\d+) ")
_READVISE = re.compile(r"^t=\S+ readvise job=(\d+) node=(\S+) grant=\d+->(\d+) ")
_DEPART = re.compile(r"^t=\S+ depart job=(\d+) node=(\S+) ")


def check_node_budgets(journal: list[str], budget: int) -> list[str]:
    """Replay the decision journal's grants per node and check that the
    granted fast bytes never exceed the node's budget."""
    granted: dict[str, dict[str, int]] = {}
    errors = []
    for line in journal:
        for pattern in (_ADMIT, _READVISE):
            m = pattern.match(line)
            if m:
                job, node, grant = m.groups()
                granted.setdefault(node, {})[job] = int(grant)
                total = sum(granted[node].values())
                if total > budget:
                    errors.append(f"{node}: {total} bytes granted > {budget}")
        m = _DEPART.match(line)
        if m:
            job, node = m.groups()
            granted.get(node, {}).pop(job, None)
    if not granted:
        errors.append("journal records no admission")
    return errors


class Sweep(Workload):
    """One cold grid sweep over a process pool, then a warm re-run."""

    name = "sweep"
    round_size = 1
    uses_every_cpu = True

    def setup(self) -> None:
        self.jobs = len(os.sched_getaffinity(0))

    def prepare(self, index: int):
        directory = os.path.join(self.scratch, f"sweep-{index}")
        shutil.rmtree(directory, ignore_errors=True)
        apps = [get_app(name) for name in APP_NAMES]
        return apps, derive_seed(self.seed, self.name, index), directory

    def run_op(self, inputs):
        apps, seed, directory = inputs
        cache = os.path.join(directory, "cache")
        cold = run_sweep(
            apps,
            jobs=self.jobs,
            seed=seed,
            cache_dir=cache,
            journal_dir=os.path.join(directory, "journal"),
            shared_plane=True,
            plane_backend="mmap",
        )
        warm = run_sweep(apps, jobs=self.jobs, seed=seed, cache_dir=cache)
        return apps, seed, directory, cold, warm

    def check(self, output) -> list[str]:
        apps, seed, _, cold, warm = output
        errors = []
        for app in apps:
            errors += check_rows(app, cold.rows(app.name))
            errors += check_attribution(
                get_app(app.name), seed, via_plane=True
            )
        cells = len(cold.outcomes)
        if warm.metrics.seconds or warm.metrics.counters != {"cache_hit": cells}:
            errors.append(f"warm re-run executed work: {warm.metrics.to_dict()}")
        if [o.row for o in warm.outcomes] != [o.row for o in cold.outcomes]:
            errors.append("warm re-run rows differ from the cold run's")
        return errors

    def fom_ratios(self, output) -> list[float]:
        apps, _, _, cold, _ = output
        return [r for app in apps for r in grid_fom_ratios(cold.rows(app.name))]

    def layer_counts(self, output) -> dict[str, float]:
        return sweep_counts(output[3])

    def cleanup(self, output) -> None:
        shutil.rmtree(output[2], ignore_errors=True)


WORKLOADS = {w.name: w for w in (Fig4, Online, Cluster, Sweep)}
