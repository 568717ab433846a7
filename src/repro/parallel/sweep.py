"""Parallel Figure-4 sweep executor with caching, durability and
supervision.

The evaluation grid (apps x budgets x strategies x baselines) is
embarrassingly parallel: cells only share the placement-invariant
profiling run of their application, and that run is deterministic in
the seed. The executor therefore fans :class:`GridCell` work across
worker processes where each worker keeps one framework (and hence one
profiling run) per application, while the parent

* answers cells from the content-addressed :class:`ResultCache`
  *before* dispatching them, so a warm re-run executes zero pipeline
  stages (provable via :class:`StageMetrics` counters);
* optionally journals every intent and settled outcome to a
  crash-consistent write-ahead :class:`SweepJournal`, so a sweep whose
  *parent* is SIGKILLed can be relaunched with ``resume=True`` and
  replay its settled cells, re-executing only the unfinished ones;
* isolates worker faults — a failing cell is retried (configurable
  count, decorrelated-jitter backoff) keyed off the structured error
  taxonomy (:mod:`repro.errors`): transient and deterministic failures
  retry, poisoned-input failures fail immediately;
* with a ``cell_deadline`` set, runs cells under the
  :class:`WorkerSupervisor` — heartbeat-tracked worker processes whose
  hung or dead members are killed and replaced, their cells requeued
  within a bounded budget; repeated deterministic failures trip a
  per-application :class:`CircuitBreaker` that refuses the app's
  remaining cells;
* enforces an optional error budget: once the budget of failed cells
  is spent, remaining cells are recorded as skipped (fail-fast);
* merges every per-cell :class:`StageMetrics` record into one
  sweep-level roll-up;
* with ``shared_plane=True`` (and ``jobs > 1``), profiles each
  application once in the parent and publishes the columnar trace +
  ground truth on a :class:`~repro.trace.shared.SharedTracePlane`;
  workers attach zero-copy read-only views and reconstruct their
  frameworks from the shared profile instead of re-profiling. A
  worker that finds the plane torn or missing falls back to private
  materialisation (counted, never a failed cell);
* batches several same-application cells per pool submission
  (``batch_size``, auto-sized from grid and jobs) so IPC and
  result-collection overhead amortise — journal intents, cache
  answers, retries, deadlines and circuit breakers all stay per-cell.

``jobs=1`` runs the same scheduler in-process (no pool), so the
serial and parallel paths share every line of cell-execution code.
A :class:`~repro.faults.plan.FaultPlan` attached to the config is
reconstructed identically inside every worker (it travels by value),
so a faulted sweep is bit-reproducible across serial and parallel
execution — and across the shared-plane path, because the parent
publishes the trace *after* applying the plan's profile degradation.
"""

from __future__ import annotations

import hashlib
import math
import time
import traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path

from repro.apps.base import SimApplication
from repro.errors import (
    CATEGORY_POISONED,
    CATEGORY_TRANSIENT,
    ConfigError,
    OutOfMemoryError,
    PlaneError,
    classify_error,
)
from repro.faults.injector import FATE_HANG, FATE_KILL, FaultInjector
from repro.faults.plan import FaultPlan
from repro.machine.config import MachineConfig, xeon_phi_7250
from repro.parallel.journal import (
    JOURNAL_SCHEMA_VERSION,
    SweepJournal,
)
from repro.parallel.result_cache import (
    ResultCache,
    app_fingerprint,
    cell_cache_key,
    content_hash,
)
from repro.parallel.supervisor import (
    CellAborted,
    CellRequeued,
    CellResult,
    CircuitBreaker,
    WorkerSupervisor,
)
from repro.pipeline.experiment import (
    ExperimentGrid,
    GridCell,
    collect_result,
    enumerate_cells,
    run_cell,
)
from repro.pipeline.framework import HybridMemoryFramework
from repro.pipeline.metrics import StageMetrics
from repro.pipeline.results import ExperimentResult, ResultRow
from repro.parallel.watchdog import start_orphan_watchdog
from repro.trace.shared import (
    BACKENDS,
    PlaneHandle,
    SharedProfile,
    SharedTracePlane,
    attach_plane,
)

#: Error text of cells the error budget prevented from running.
SKIPPED_ERROR = "skipped: error budget exhausted"

#: Error-text prefix of cells an open circuit prevented from running.
CIRCUIT_ERROR_PREFIX = "skipped: circuit open"


@dataclass
class SweepConfig:
    """Execution knobs of one sweep."""

    #: Worker processes; 1 executes in-process (no pool).
    jobs: int = 1
    #: Result-cache directory; None disables caching.
    cache_dir: str | Path | None = None
    #: Base seed; each application's framework profiles with it, so
    #: sweep rows match ``run_figure4_experiment(app, seed=seed)``.
    seed: int = 0
    #: Re-executions granted to a faulting cell before it is recorded
    #: as an error outcome (poisoned-input failures never retry).
    retries: int = 1
    #: Base delay before a retry; attempt ``n`` waits a decorrelated-
    #: jitter delay seeded per cell (0 disables backoff).
    backoff_seconds: float = 0.0
    #: Wall-clock limit per cell attempt; an attempt exceeding it is
    #: treated as a failure (and retried). None: no limit.
    timeout_seconds: float | None = None
    #: After this many cells have *finally* failed, stop executing and
    #: record every remaining cell as skipped. None: run everything.
    error_budget: int | None = None
    #: Degradation schedule applied inside every cell. Part of the
    #: cache identity, so faulted and clean results never mix.
    fault_plan: FaultPlan | None = None
    #: Directory of the crash-consistent sweep journal; None disables
    #: journaling (and hence resumability).
    journal_dir: str | Path | None = None
    #: Replay settled cells from an existing journal in
    #: ``journal_dir`` and execute only the unfinished remainder.
    resume: bool = False
    #: Wall-clock deadline per dispatched cell. With ``jobs > 1`` this
    #: engages the worker supervisor: a worker whose cell overruns the
    #: deadline is killed and the cell requeued. Serially it is
    #: enforced post-hoc (like ``timeout_seconds``).
    cell_deadline: float | None = None
    #: Requeues granted to a cell whose worker died or was killed
    #: (out-of-band failures — distinct from ``retries``, which
    #: governs in-band failures reported by a live worker).
    requeue_budget: int = 2
    #: Deterministic-category final failures an application may
    #: accumulate before its circuit opens and its remaining cells are
    #: refused. None: breaker disabled.
    circuit_threshold: int | None = None
    #: Publish each application's profiling products once per host on
    #: a shared trace plane; workers (``jobs > 1`` only) reconstruct
    #: their frameworks from zero-copy views instead of re-profiling.
    shared_plane: bool = False
    #: Plane transport: ``"shm"`` (POSIX shared memory) or ``"mmap"``
    #: (uncompressed on-disk columnar container; the page cache shares
    #: one physical copy).
    plane_backend: str = "shm"
    #: Cells per pool submission. ``None`` auto-sizes from grid and
    #: jobs — and pins the batch to 1 whenever ``timeout_seconds`` is
    #: set, so the per-attempt timeout keeps its per-cell meaning.
    batch_size: int | None = None

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ConfigError("sweep needs at least one job")
        if self.retries < 0:
            raise ConfigError("retries must be >= 0")
        if self.backoff_seconds < 0:
            raise ConfigError("backoff_seconds must be >= 0")
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ConfigError("timeout_seconds must be positive")
        if self.error_budget is not None and self.error_budget < 1:
            raise ConfigError("error_budget must be >= 1")
        if self.cell_deadline is not None and self.cell_deadline <= 0:
            raise ConfigError("cell_deadline must be positive")
        if self.requeue_budget < 0:
            raise ConfigError("requeue_budget must be >= 0")
        if self.circuit_threshold is not None and self.circuit_threshold < 1:
            raise ConfigError("circuit_threshold must be >= 1")
        if self.resume and self.journal_dir is None:
            raise ConfigError("resume requires a journal_dir")
        if self.plane_backend not in BACKENDS:
            raise ConfigError(
                f"unknown plane backend {self.plane_backend!r}; "
                f"have {BACKENDS}"
            )
        if self.batch_size is not None and self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")


@dataclass
class CellOutcome:
    """One cell's result: a row, a captured failure, or a skip."""

    application: str
    cell: GridCell
    row: ResultRow | None = None
    #: Formatted traceback of the last attempt, if every attempt failed.
    error: str | None = None
    #: Failure-taxonomy category of the last attempt (None on success).
    category: str | None = None
    attempts: int = 0
    cached: bool = False
    #: True when this outcome was replayed from a sweep journal.
    resumed: bool = False
    #: True when the error budget or an open circuit prevented this
    #: cell from running.
    skipped: bool = False
    metrics: StageMetrics = field(default_factory=StageMetrics)
    #: Position in the (app, cell) enumeration; outcomes are sorted by
    #: it so parallel completion order never leaks into the results.
    order: tuple[int, int] = (0, 0)

    @property
    def ok(self) -> bool:
        return self.row is not None


@dataclass
class SweepResult:
    """Everything one sweep produced."""

    outcomes: list[CellOutcome] = field(default_factory=list)
    #: Sweep-level roll-up of every cell's stage record plus the
    #: bookkeeping counters (cache_hit/cache_miss/error/retry/
    #: timeout/skipped/journal_replay/requeue/deadline_kill/
    #: worker_crash/circuit_open and the fault-degradation counters).
    metrics: StageMetrics = field(default_factory=StageMetrics)

    @property
    def failures(self) -> list[CellOutcome]:
        """Cells that ran and failed (skipped cells excluded)."""
        return [o for o in self.outcomes if not o.ok and not o.skipped]

    @property
    def skipped(self) -> list[CellOutcome]:
        return [o for o in self.outcomes if o.skipped]

    @property
    def resumed(self) -> list[CellOutcome]:
        """Cells answered by journal replay instead of execution."""
        return [o for o in self.outcomes if o.resumed]

    def rows(self, application: str) -> dict[GridCell, ResultRow]:
        return {
            o.cell: o.row
            for o in self.outcomes
            if o.application == application and o.ok
        }

    def experiment(self, app: SimApplication) -> ExperimentResult:
        """Assemble one application's successful rows."""
        return collect_result(app, self.rows(app.name))


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------

#: Per-worker-process framework memo: (app name, machine name, seed,
#: fault plan, plane key) -> HybridMemoryFramework. Raw addresses and
#: profiling runs are only meaningful within one process (ASLR), so
#: the memo — like the paper's per-process decision cache — never
#: crosses the pool. The plan is part of the key because it shapes the
#: memoised (possibly degraded) profiling run.
_WORKER_FRAMEWORKS: dict[tuple, HybridMemoryFramework] = {}

#: Entries the framework memo may hold before the least-recently-used
#: one is evicted. Long sweeps over many apps × plans would otherwise
#: pin every profiling run they ever materialised.
_WORKER_MEMO_CAP = 4

#: Per-worker-process cache of attached planes: plane key ->
#: SharedProfile. Attachments are views, not copies, so this stays
#: tiny and is deliberately *not* evicted with the framework memo —
#: a re-created framework reattaches for free.
_WORKER_PLANES: dict[str, SharedProfile] = {}


def _memo_get(memo: dict, key: tuple) -> HybridMemoryFramework | None:
    """LRU lookup: a hit is moved to the most-recent end."""
    framework = memo.pop(key, None)
    if framework is not None:
        memo[key] = framework
    return framework


def _memo_put(memo: dict, key: tuple, framework: HybridMemoryFramework) -> int:
    """Insert, evicting least-recently-used entries beyond the cap.

    Returns the number of evictions (dict order is insertion order,
    and :func:`_memo_get` reinserts on hit, so the first key is always
    the least recently used)."""
    memo[key] = framework
    evictions = 0
    while len(memo) > _WORKER_MEMO_CAP:
        memo.pop(next(iter(memo)))
        evictions += 1
    return evictions


def _execute_cell(
    app: SimApplication,
    machine: MachineConfig,
    cell: GridCell,
    seed: int,
    frameworks: dict | None = None,
    plan: FaultPlan | None = None,
    attempt: int = 1,
    plane: PlaneHandle | None = None,
) -> tuple[ResultRow | None, str | None, str | None, dict]:
    """Run one cell; never raises (the pool must stay healthy).

    Returns ``(row, traceback_text, category, metrics_dict)`` — the
    category is the failure-taxonomy bucket of the captured exception
    (None on success) and the metrics cover only the stages this call
    actually executed, so the parent can sum them into a truthful
    sweep total. ``frameworks`` is the framework memo to use; pool
    workers default to the process-global one, the in-process serial
    path passes a per-sweep dict.

    With a ``plane`` handle, a missing framework is reconstructed
    around the host's shared trace instead of re-profiling
    (``plane_attach`` counted); a torn or vanished plane degrades to
    private materialisation (``plane_fallback`` counted) — never to a
    failed cell.
    """
    memo = _WORKER_FRAMEWORKS if frameworks is None else frameworks
    key = (
        app.name,
        machine.name,
        seed,
        plan,
        plane.key if plane is not None else None,
    )
    framework = _memo_get(memo, key)
    plane_counter = None
    evictions = 0
    if framework is None:
        if plane is not None:
            shared = _WORKER_PLANES.get(plane.key)
            if shared is None:
                try:
                    shared = attach_plane(plane)
                    _WORKER_PLANES[plane.key] = shared
                except PlaneError:
                    plane_counter = "plane_fallback"
            if shared is not None:
                framework = HybridMemoryFramework.from_shared_profile(
                    app, machine, shared, seed=seed, fault_plan=plan
                )
                plane_counter = "plane_attach"
        if framework is None:
            framework = HybridMemoryFramework(
                app, machine, seed=seed, fault_plan=plan
            )
        evictions = _memo_put(memo, key, framework)
    framework.metrics = StageMetrics()
    if plane_counter is not None:
        framework.metrics.bump(plane_counter)
    if evictions:
        framework.metrics.bump("framework_evicted", evictions)
    try:
        if plan is not None:
            injector = FaultInjector(plan)
            fate = injector.cell_fate(app.name, cell.key, attempt)
            if fate == FATE_HANG:
                framework.metrics.bump("cell_hung")
                time.sleep(plan.cell_hang_seconds)
            elif fate == FATE_KILL:
                framework.metrics.bump("cell_killed")
                raise injector.kill_error(app.name, cell.key, attempt)
        row = run_cell(framework, cell)
        return row, None, None, framework.metrics.to_dict()
    except OutOfMemoryError as exc:
        framework.metrics.bump("oom")
        return (
            None,
            traceback.format_exc(),
            classify_error(exc),
            framework.metrics.to_dict(),
        )
    except (KeyboardInterrupt, SystemExit):
        # Control-flow signals, not cell failures: swallowing them
        # would turn a Ctrl-C (or an exit()-ing workload) into a
        # "transient" error that gets retried. Let them unwind.
        raise
    except BaseException as exc:
        return (
            None,
            traceback.format_exc(),
            classify_error(exc),
            framework.metrics.to_dict(),
        )


def _execute_batch(
    app: SimApplication,
    machine: MachineConfig,
    cells: list[GridCell],
    seed: int,
    plan: FaultPlan | None = None,
    attempts: list[int] | None = None,
    plane: PlaneHandle | None = None,
) -> list[tuple[ResultRow | None, str | None, str | None, dict]]:
    """Run a batch of same-application cells in one worker call.

    Batching amortises pool IPC — one submit and one result per batch
    instead of per cell — without changing per-cell semantics: every
    cell still runs through :func:`_execute_cell` and yields its own
    ``(row, error, category, metrics)`` tuple, so the parent settles,
    caches, journals and retries each cell individually.
    """
    if attempts is None:
        attempts = [1] * len(cells)
    return [
        _execute_cell(
            app, machine, cell, seed, None, plan, attempt, plane=plane
        )
        for cell, attempt in zip(cells, attempts)
    ]


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------


def _jitter_unit(seed: int, *tokens: object) -> float:
    """Deterministic uniform draw in [0, 1) keyed on ``tokens``."""
    digest = hashlib.sha256(repr((seed, tokens)).encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


class SweepExecutor:
    """Schedule, journal, cache, retry, supervise and aggregate a
    grid of sweep cells."""

    def __init__(
        self,
        machine: MachineConfig | None = None,
        config: SweepConfig | None = None,
    ) -> None:
        self.machine = machine or xeon_phi_7250()
        self.config = config or SweepConfig()
        self.cache = (
            ResultCache(self.config.cache_dir)
            if self.config.cache_dir is not None
            else None
        )
        self._journal: SweepJournal | None = None
        self._breaker = CircuitBreaker(self.config.circuit_threshold)

    # -- public entry ---------------------------------------------------

    def run(
        self,
        apps: list[SimApplication],
        grid: ExperimentGrid | None = None,
    ) -> SweepResult:
        """Sweep every cell of every application."""
        config = self.config
        result = SweepResult()
        self._breaker = CircuitBreaker(config.circuit_threshold)
        need_key = self.cache is not None or config.journal_dir is not None

        entries: list[tuple[SimApplication, CellOutcome, str | None]] = []
        for app_index, app in enumerate(apps):
            for cell_index, cell in enumerate(enumerate_cells(app, grid)):
                outcome = CellOutcome(
                    application=app.name,
                    cell=cell,
                    order=(app_index, cell_index),
                )
                key = (
                    cell_cache_key(
                        app,
                        self.machine,
                        cell,
                        config.seed,
                        fault_plan=config.fault_plan,
                    )
                    if need_key
                    else None
                )
                entries.append((app, outcome, key))

        replayed: dict[str, dict] = {}
        if config.journal_dir is not None:
            manifest = self._manifest([key for _, _, key in entries])
            if config.resume:
                self._journal, replay = SweepJournal.resume(
                    config.journal_dir, manifest
                )
                replayed = replay.settled
            else:
                self._journal = SweepJournal.create(
                    config.journal_dir, manifest
                )

        try:
            pending: list[
                tuple[SimApplication, CellOutcome, str | None]
            ] = []
            for app, outcome, key in entries:
                payload = replayed.get(key)
                if payload is not None:
                    self._restore_outcome(payload, outcome)
                    result.metrics.bump("journal_replay")
                    result.outcomes.append(outcome)
                    continue
                if self.cache is not None:
                    row = self.cache.get(key)
                    if row is not None:
                        result.metrics.bump("cache_hit")
                        outcome.row, outcome.cached = row, True
                        self._journal_outcome(key, outcome)
                        result.outcomes.append(outcome)
                        continue
                    result.metrics.bump("cache_miss")
                pending.append((app, outcome, key))

            if self._journal is not None and pending:
                self._journal.append_intents(
                    [
                        {
                            "key": key,
                            "application": app.name,
                            "cell": outcome.cell.to_dict(),
                        }
                        for app, outcome, key in pending
                    ]
                )

            if pending:
                if config.jobs == 1:
                    self._run_serial(pending, result)
                else:
                    plane: SharedTracePlane | None = None
                    planes: dict[str, PlaneHandle] = {}
                    if config.shared_plane:
                        plane = SharedTracePlane(
                            backend=config.plane_backend
                        )
                        planes = self._publish_planes(
                            plane, pending, result
                        )
                    try:
                        if config.cell_deadline is not None:
                            self._run_supervised(pending, result, planes)
                        else:
                            self._run_pool(pending, result, planes)
                    finally:
                        if plane is not None:
                            plane.close()

            result.outcomes.sort(key=lambda o: o.order)
            for outcome in result.outcomes:
                result.metrics.merge(outcome.metrics)
            if self._journal is not None:
                ok = sum(1 for o in result.outcomes if o.ok)
                self._journal.record_end(
                    {
                        "cells": len(result.outcomes),
                        "ok": ok,
                        "failed": len(result.outcomes) - ok,
                    }
                )
        finally:
            if self._journal is not None:
                self._journal.close()
                self._journal = None
        return result

    # -- journal plumbing ----------------------------------------------

    def _manifest(self, keys: list[str | None]) -> dict:
        """The sweep's durable identity (pins every input via the
        per-cell content-hash keys)."""
        config = self.config
        return {
            "schema": JOURNAL_SCHEMA_VERSION,
            "seed": config.seed,
            "machine": self.machine.name,
            "fault_plan": (
                config.fault_plan.to_dict()
                if config.fault_plan is not None
                else None
            ),
            "cells": len(keys),
            "sweep_key": content_hash(
                {"cells": sorted(k for k in keys if k is not None)}
            ),
        }

    def _journal_outcome(self, key: str | None, outcome: CellOutcome) -> None:
        if self._journal is None:
            return
        self._journal.record_outcome(
            {
                "key": key,
                "application": outcome.application,
                "cell": outcome.cell.to_dict(),
                "row": outcome.row.to_dict() if outcome.row else None,
                "error": outcome.error,
                "category": outcome.category,
                "attempts": outcome.attempts,
                "cached": outcome.cached,
                "skipped": outcome.skipped,
                "metrics": outcome.metrics.to_dict(),
            }
        )

    @staticmethod
    def _restore_outcome(payload: dict, outcome: CellOutcome) -> None:
        """Rehydrate a journaled outcome onto a fresh CellOutcome."""
        row = payload.get("row")
        outcome.row = ResultRow.from_dict(row) if row else None
        outcome.error = payload.get("error")
        outcome.category = payload.get("category")
        outcome.attempts = int(payload.get("attempts", 0))
        outcome.cached = bool(payload.get("cached", False))
        outcome.skipped = bool(payload.get("skipped", False))
        # The journaled metrics describe work the *previous* run did;
        # like a cache hit, a replayed cell executed nothing in this
        # run, so its metrics stay empty (history lives in the file).
        outcome.resumed = True

    # -- execution strategies ------------------------------------------

    def _backoff(self, attempt_done: int, token: tuple = ()) -> float:
        """Delay before the attempt after ``attempt_done`` failed.

        Decorrelated jitter (``sleep_n = U(base, 3 * sleep_{n-1})``,
        capped) seeded per cell, so cells requeued together after a
        worker death spread out instead of stampeding the pool in
        lockstep. Deterministic in the sweep seed and cell identity.
        """
        base = self.config.backoff_seconds
        if base <= 0:
            return 0.0
        cap = base * 32
        sleep = base
        for i in range(1, attempt_done + 1):
            u = _jitter_unit(self.config.seed, "backoff", token, i)
            sleep = min(cap, base + u * max(0.0, 3.0 * sleep - base))
        return sleep

    def _finish(
        self,
        result: SweepResult,
        outcome: CellOutcome,
        key: str | None,
    ) -> None:
        if outcome.ok and key is not None and self.cache is not None:
            self.cache.put(key, outcome.row)
        if not outcome.ok:
            result.metrics.bump("error")
            self._breaker.record_failure(outcome.application, outcome.category)
        self._journal_outcome(key, outcome)
        result.outcomes.append(outcome)

    def _skip(
        self,
        result: SweepResult,
        outcome: CellOutcome,
        key: str | None = None,
        error: str = SKIPPED_ERROR,
        counter: str = "skipped",
    ) -> None:
        outcome.skipped = True
        outcome.error = error
        result.metrics.bump(counter)
        self._journal_outcome(key, outcome)
        result.outcomes.append(outcome)

    def _skip_circuit(
        self,
        result: SweepResult,
        outcome: CellOutcome,
        key: str | None,
    ) -> None:
        self._skip(
            result,
            outcome,
            key,
            error=(
                f"{CIRCUIT_ERROR_PREFIX}: {outcome.application} failed "
                "deterministically too often"
            ),
            counter="circuit_open",
        )

    # -- shared trace plane --------------------------------------------

    def _plane_key(self, app: SimApplication) -> str:
        """Content-derived identity of one application's plane — the
        same inputs that pin a cell's cache key, minus the cell."""
        config = self.config
        return content_hash(
            {
                "kind": "trace-plane",
                "app": app_fingerprint(app),
                "machine": self.machine.name,
                "seed": config.seed,
                "fault_plan": (
                    config.fault_plan.to_dict()
                    if config.fault_plan is not None
                    else None
                ),
            }
        )

    def _publish_planes(
        self,
        plane: SharedTracePlane,
        pending: list[tuple[SimApplication, CellOutcome, str | None]],
        result: SweepResult,
    ) -> dict[str, PlaneHandle]:
        """Profile and export each pending application exactly once.

        Publishing is an optimisation, never a gate: an application
        whose profile run fails here simply gets no handle — its cells
        run planeless and fail (or not) under the normal per-cell
        retry taxonomy, with ``plane_publish_failed`` counted.
        """
        handles: dict[str, PlaneHandle] = {}
        seen: set[str] = set()
        for app, _, _ in pending:
            if app.name in seen:
                continue
            seen.add(app.name)
            try:
                # The profile is columnar and, under a profile-degrading
                # fault plan, already degraded: published as it is, it
                # is what every worker would profile privately.
                framework = HybridMemoryFramework(
                    app,
                    self.machine,
                    seed=self.config.seed,
                    fault_plan=self.config.fault_plan,
                )
                profiling = framework.profile()
                handles[app.name] = plane.publish(
                    self._plane_key(app),
                    profiling.trace,
                    profiling.ground_truth,
                )
            except (KeyboardInterrupt, SystemExit):
                raise
            except BaseException:
                result.metrics.bump("plane_publish_failed")
                continue
            result.metrics.merge(framework.metrics)
            result.metrics.bump("plane_publish")
        return handles

    def _batch_size(self, n_pending: int, jobs: int) -> int:
        """Cells per pool submission.

        Explicit ``batch_size`` wins. Auto mode targets four batches
        per worker (enough slack for retries and stragglers to
        interleave, few enough submissions to amortise IPC), capped at
        32 — and stays at 1 while a per-attempt timeout is set, so the
        timeout keeps meaning "per cell".
        """
        config = self.config
        if config.batch_size is not None:
            return config.batch_size
        if config.timeout_seconds is not None:
            return 1
        return max(1, min(32, math.ceil(n_pending / (4 * jobs))))

    def _run_serial(
        self,
        pending: list[tuple[SimApplication, CellOutcome, str | None]],
        result: SweepResult,
    ) -> None:
        frameworks: dict = {}
        config = self.config
        failures = 0
        for app, outcome, key in pending:
            if (
                config.error_budget is not None
                and failures >= config.error_budget
            ):
                self._skip(result, outcome, key)
                continue
            if self._breaker.is_open(app.name):
                self._skip_circuit(result, outcome, key)
                continue
            for _ in range(1 + config.retries):
                if outcome.attempts > 0:
                    result.metrics.bump("retry")
                    delay = self._backoff(
                        outcome.attempts, (app.name, outcome.cell.key)
                    )
                    if delay > 0:
                        time.sleep(delay)
                outcome.attempts += 1
                start = time.monotonic()
                row, error, category, metrics = _execute_cell(
                    app,
                    self.machine,
                    outcome.cell,
                    config.seed,
                    frameworks=frameworks,
                    plan=config.fault_plan,
                    attempt=outcome.attempts,
                )
                elapsed = time.monotonic() - start
                outcome.metrics.merge(StageMetrics.from_dict(metrics))
                if (
                    config.timeout_seconds is not None
                    and elapsed > config.timeout_seconds
                ):
                    # The serial path cannot preempt, so the limit is
                    # enforced post-hoc: an over-budget attempt is a
                    # failure even if it eventually produced a row.
                    row = None
                    error = (
                        f"timeout: attempt took {elapsed:.3f}s "
                        f"(limit {config.timeout_seconds}s)"
                    )
                    category = CATEGORY_TRANSIENT
                    outcome.metrics.bump("timeout")
                elif (
                    config.cell_deadline is not None
                    and elapsed > config.cell_deadline
                ):
                    row = None
                    error = (
                        f"deadline: attempt took {elapsed:.3f}s "
                        f"(limit {config.cell_deadline}s)"
                    )
                    category = CATEGORY_TRANSIENT
                    outcome.metrics.bump("deadline_exceeded")
                outcome.row, outcome.error = row, error
                outcome.category = category
                if row is not None:
                    break
                if category == CATEGORY_POISONED:
                    # Re-running bad input reproduces the failure.
                    break
            if not outcome.ok:
                failures += 1
            self._finish(result, outcome, key)

    def _run_pool(
        self,
        pending: list[tuple[SimApplication, CellOutcome, str | None]],
        result: SweepResult,
        planes: dict[str, PlaneHandle] | None = None,
    ) -> None:
        config = self.config
        planes = planes or {}
        jobs = min(config.jobs, len(pending))
        batch_size = self._batch_size(len(pending), jobs)
        queue = deque(pending)
        #: (ready time, app, outcome, key) waiting out a backoff delay.
        retry_queue: list[tuple[float, SimApplication, CellOutcome, str | None]] = []
        failures = 0
        # The initializer arms the orphan watchdog in every worker: if
        # this parent is SIGKILL'd mid-sweep, workers self-terminate
        # instead of idling forever — which is also what lets the
        # resource tracker unlink a live shared trace plane.
        with ProcessPoolExecutor(
            max_workers=jobs, initializer=start_orphan_watchdog
        ) as pool:
            #: future -> (app, [(outcome, key), ...], deadline).
            inflight: dict = {}

            def budget_exhausted() -> bool:
                return (
                    config.error_budget is not None
                    and failures >= config.error_budget
                )

            def submit(app, items) -> None:
                for outcome, _ in items:
                    outcome.attempts += 1
                future = pool.submit(
                    _execute_batch,
                    app,
                    self.machine,
                    [outcome.cell for outcome, _ in items],
                    config.seed,
                    config.fault_plan,
                    [outcome.attempts for outcome, _ in items],
                    planes.get(app.name),
                )
                deadline = (
                    time.monotonic() + config.timeout_seconds * len(items)
                    if config.timeout_seconds is not None
                    else None
                )
                inflight[future] = (app, items, deadline)

            def settle(outcome, key, app) -> None:
                nonlocal failures
                if outcome.ok:
                    self._finish(result, outcome, key)
                    return
                if (
                    outcome.category != CATEGORY_POISONED
                    and outcome.attempts <= config.retries
                    and not budget_exhausted()
                ):
                    result.metrics.bump("retry")
                    ready = time.monotonic() + self._backoff(
                        outcome.attempts, (app.name, outcome.cell.key)
                    )
                    retry_queue.append((ready, app, outcome, key))
                    return
                failures += 1
                self._finish(result, outcome, key)

            while queue or inflight or retry_queue:
                now = time.monotonic()
                if budget_exhausted():
                    while queue:
                        _, outcome, key = queue.popleft()
                        self._skip(result, outcome, key)
                    # A cell already waiting on a retry keeps its last
                    # captured error instead of being granted more
                    # attempts.
                    for _, _, outcome, key in retry_queue:
                        failures += 1
                        self._finish(result, outcome, key)
                    retry_queue.clear()
                else:
                    retry_queue.sort(key=lambda item: item[0])
                    while (
                        retry_queue
                        and retry_queue[0][0] <= now
                        and len(inflight) < 2 * jobs
                    ):
                        # Retries re-dispatch as singleton batches:
                        # their backoff already de-batched them.
                        _, app, outcome, key = retry_queue.pop(0)
                        submit(app, [(outcome, key)])
                    while queue and len(inflight) < 2 * jobs:
                        app, outcome, key = queue.popleft()
                        if self._breaker.is_open(app.name):
                            self._skip_circuit(result, outcome, key)
                            continue
                        items = [(outcome, key)]
                        while (
                            len(items) < batch_size
                            and queue
                            and queue[0][0] is app
                        ):
                            _, next_outcome, next_key = queue.popleft()
                            items.append((next_outcome, next_key))
                        submit(app, items)
                if not inflight:
                    if retry_queue:
                        time.sleep(max(0.0, retry_queue[0][0] - now))
                    continue
                wake: float | None = None
                for _, _, deadline in inflight.values():
                    if deadline is not None:
                        wake = deadline if wake is None else min(wake, deadline)
                if retry_queue:
                    ready = min(item[0] for item in retry_queue)
                    wake = ready if wake is None else min(wake, ready)
                timeout = (
                    None if wake is None else max(0.0, wake - time.monotonic())
                )
                done, _ = wait(
                    inflight, timeout=timeout, return_when=FIRST_COMPLETED
                )
                for future in done:
                    app, items, _ = inflight.pop(future)
                    try:
                        payloads = future.result()
                    except (KeyboardInterrupt, SystemExit):
                        # The *parent's* interrupt/exit, not a cell
                        # outcome — never record it as a failure.
                        raise
                    except BaseException as exc:
                        # BrokenProcessPool-class faults: the payloads
                        # never came back; synthesise the error for
                        # every cell of the batch.
                        error_text = traceback.format_exc()
                        payloads = [
                            (None, error_text, classify_error(exc), {})
                        ] * len(items)
                    for (outcome, key), payload in zip(items, payloads):
                        row, error, category, metrics = payload
                        outcome.metrics.merge(
                            StageMetrics.from_dict(metrics)
                        )
                        outcome.row, outcome.error = row, error
                        outcome.category = category
                        settle(outcome, key, app)
                if config.timeout_seconds is not None:
                    now = time.monotonic()
                    for future, payload in list(inflight.items()):
                        app, items, deadline = payload
                        if deadline is None or now < deadline:
                            continue
                        # Cancel if still queued; a running attempt is
                        # abandoned (its eventual result is discarded)
                        # so the sweep never blocks on a hung cell.
                        future.cancel()
                        del inflight[future]
                        for outcome, key in items:
                            outcome.row = None
                            outcome.error = (
                                f"timeout: attempt exceeded "
                                f"{config.timeout_seconds}s"
                            )
                            outcome.category = CATEGORY_TRANSIENT
                            outcome.metrics.bump("timeout")
                            settle(outcome, key, app)

    def _run_supervised(
        self,
        pending: list[tuple[SimApplication, CellOutcome, str | None]],
        result: SweepResult,
        planes: dict[str, PlaneHandle] | None = None,
    ) -> None:
        """Run cells under the worker supervisor (``cell_deadline``
        set): hung/dead workers are killed and replaced, their cells
        requeued within the requeue budget. Dispatch stays per-cell —
        the deadline's kill/requeue unit is one cell — but workers
        still attach the shared plane when one is published."""
        config = self.config
        jobs = min(config.jobs, len(pending))
        queue = deque(pending)
        retry_queue: list[tuple[float, SimApplication, CellOutcome, str | None]] = []
        tasks: dict[int, tuple[SimApplication, CellOutcome, str | None]] = {}
        failures = 0
        supervisor = WorkerSupervisor(
            jobs,
            self.machine,
            config.seed,
            config.fault_plan,
            cell_deadline=config.cell_deadline,
            requeue_budget=config.requeue_budget,
            plane_handles=planes or None,
        )

        def budget_exhausted() -> bool:
            return (
                config.error_budget is not None
                and failures >= config.error_budget
            )

        def submit(app, outcome, key) -> None:
            outcome.attempts += 1
            task_id = supervisor.submit(app, outcome.cell, outcome.attempts)
            tasks[task_id] = (app, outcome, key)

        def settle_failure(app, outcome, key) -> None:
            nonlocal failures
            if (
                outcome.category != CATEGORY_POISONED
                and outcome.attempts <= config.retries
                and not budget_exhausted()
            ):
                result.metrics.bump("retry")
                ready = time.monotonic() + self._backoff(
                    outcome.attempts, (app.name, outcome.cell.key)
                )
                retry_queue.append((ready, app, outcome, key))
                return
            failures += 1
            self._finish(result, outcome, key)

        with supervisor:
            while queue or retry_queue or tasks:
                now = time.monotonic()
                if budget_exhausted():
                    while queue:
                        _, outcome, key = queue.popleft()
                        self._skip(result, outcome, key)
                    for _, _, outcome, key in retry_queue:
                        failures += 1
                        self._finish(result, outcome, key)
                    retry_queue.clear()
                else:
                    retry_queue.sort(key=lambda item: item[0])
                    while (
                        retry_queue
                        and retry_queue[0][0] <= now
                        and supervisor.capacity > 0
                    ):
                        _, app, outcome, key = retry_queue.pop(0)
                        if self._breaker.is_open(app.name):
                            failures += 1
                            self._finish(result, outcome, key)
                            continue
                        submit(app, outcome, key)
                    while queue and supervisor.capacity > 0:
                        app, outcome, key = queue.popleft()
                        if self._breaker.is_open(app.name):
                            self._skip_circuit(result, outcome, key)
                            continue
                        submit(app, outcome, key)
                if not tasks:
                    if retry_queue:
                        retry_queue.sort(key=lambda item: item[0])
                        time.sleep(max(0.0, retry_queue[0][0] - now))
                        continue
                    if queue:
                        continue
                    break
                timeout = 0.25
                if retry_queue:
                    ready = min(item[0] for item in retry_queue)
                    timeout = max(0.0, min(timeout, ready - now))
                for event in supervisor.poll(timeout):
                    if isinstance(event, CellResult):
                        entry = tasks.pop(event.task_id, None)
                        if entry is None:
                            continue
                        app, outcome, key = entry
                        outcome.metrics.merge(
                            StageMetrics.from_dict(event.metrics)
                        )
                        outcome.row = event.row
                        outcome.error = event.error
                        outcome.category = event.category
                        if outcome.ok:
                            self._finish(result, outcome, key)
                        else:
                            settle_failure(app, outcome, key)
                    elif isinstance(event, CellRequeued):
                        entry = tasks.get(event.task_id)
                        if entry is None:
                            continue
                        _, outcome, _ = entry
                        outcome.attempts += 1
                        result.metrics.bump("requeue")
                        result.metrics.bump(event.reason)
                    elif isinstance(event, CellAborted):
                        entry = tasks.pop(event.task_id, None)
                        if entry is None:
                            continue
                        app, outcome, key = entry
                        outcome.row = None
                        outcome.error = event.error
                        outcome.category = event.category
                        result.metrics.bump(event.reason)
                        failures += 1
                        self._finish(result, outcome, key)


def run_sweep(
    apps: list[SimApplication],
    machine: MachineConfig | None = None,
    grid: ExperimentGrid | None = None,
    jobs: int = 1,
    cache_dir: str | Path | None = None,
    seed: int = 0,
    retries: int = 1,
    backoff_seconds: float = 0.0,
    timeout_seconds: float | None = None,
    error_budget: int | None = None,
    fault_plan: FaultPlan | None = None,
    journal_dir: str | Path | None = None,
    resume: bool = False,
    cell_deadline: float | None = None,
    requeue_budget: int = 2,
    circuit_threshold: int | None = None,
    shared_plane: bool = False,
    plane_backend: str = "shm",
    batch_size: int | None = None,
) -> SweepResult:
    """Convenience wrapper: sweep ``apps`` with the given knobs."""
    executor = SweepExecutor(
        machine=machine,
        config=SweepConfig(
            jobs=jobs,
            cache_dir=cache_dir,
            seed=seed,
            retries=retries,
            backoff_seconds=backoff_seconds,
            timeout_seconds=timeout_seconds,
            error_budget=error_budget,
            fault_plan=fault_plan,
            journal_dir=journal_dir,
            resume=resume,
            cell_deadline=cell_deadline,
            requeue_budget=requeue_budget,
            circuit_threshold=circuit_threshold,
            shared_plane=shared_plane,
            plane_backend=plane_backend,
            batch_size=batch_size,
        ),
    )
    return executor.run(apps, grid=grid)
