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
* owns its workers through the :class:`WorkerSupervisor`: a worker
  whose cell overruns ``cell_deadline``, or that dies, is replaced and
  its cells fail in-band as transient errors, retried under the same
  ``retries`` as any other failure; repeated deterministic failures
  trip a per-application :class:`CircuitBreaker` that refuses the
  app's remaining cells;
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
* batches several same-application cells per dispatch (auto-sized
  from grid and jobs) so IPC and result-collection overhead amortise —
  journal intents, cache answers, retries, deadlines and circuit
  breakers all stay per-cell.

One scheduling loop drives every sweep: ``jobs=1`` runs it over an
in-process executor instead of worker processes, so the serial and
parallel paths share every line of scheduling and cell-execution
code. A :class:`~repro.faults.plan.FaultPlan` attached to the config is
reconstructed identically inside every worker (it travels by value),
so a faulted sweep is bit-reproducible across serial and parallel
execution — and across the shared-plane path, because the parent
publishes the trace *after* applying the plan's profile degradation.
"""

from __future__ import annotations

import math
import time
import traceback
from collections import deque
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
from repro.ioutil import content_hash
from repro.machine.config import MachineConfig, xeon_phi_7250
from repro.parallel.journal import (
    JOURNAL_SCHEMA_VERSION,
    SweepJournal,
)
from repro.parallel.result_cache import (
    ResultCache,
    app_fingerprint,
    cell_cache_key,
)
# ``wait`` is the call the parent blocks in while workers run; it is
# bound here too so that tracing can wrap it by this module's name.
from repro.parallel.supervisor import (
    REASON_DEADLINE,
    CellResult,
    WorkerSupervisor,
    wait,
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
from repro.retry import CircuitBreaker, backoff_delay
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

    #: Worker processes; 1 executes in-process (no workers).
    jobs: int = 1
    #: Result-cache directory; None disables caching.
    cache_dir: str | Path | None = None
    #: Base seed; each application's framework profiles with it, so
    #: sweep rows match ``run_figure4_experiment(app, seed=seed)``.
    seed: int = 0
    #: Re-executions granted to a failing cell — an in-band error, a
    #: deadline overrun or a dead worker alike — before it is recorded
    #: as an error outcome (poisoned-input failures never retry).
    retries: int = 1
    #: Base delay before a retry; attempt ``n`` waits a decorrelated-
    #: jitter delay seeded per cell (0 disables backoff).
    backoff_seconds: float = 0.0
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
    #: Wall-clock limit per cell attempt; an attempt exceeding it is a
    #: transient failure, retried under ``retries``. With ``jobs > 1``
    #: the overrunning worker is killed and replaced; in-process the
    #: limit is enforced post hoc. None: no limit.
    cell_deadline: float | None = None
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

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ConfigError("sweep needs at least one job")
        if self.retries < 0:
            raise ConfigError("retries must be >= 0")
        if not 0 <= self.backoff_seconds < math.inf:
            raise ConfigError("backoff_seconds must be finite and >= 0")
        if self.error_budget is not None and self.error_budget < 1:
            raise ConfigError("error_budget must be >= 1")
        deadline = self.cell_deadline
        if deadline is not None and not 0 < deadline < math.inf:
            raise ConfigError("cell_deadline must be finite and positive")
        if self.circuit_threshold is not None and self.circuit_threshold < 1:
            raise ConfigError("circuit_threshold must be >= 1")
        if self.resume and self.journal_dir is None:
            raise ConfigError("resume requires a journal_dir")
        if self.plane_backend not in BACKENDS:
            raise ConfigError(
                f"unknown plane backend {self.plane_backend!r}; "
                f"have {BACKENDS}"
            )


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
    #: deadline/worker_crash/skipped/journal_replay/circuit_open and
    #: the fault-degradation counters).
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

#: A framework memo maps (app name, machine name, seed, fault plan,
#: plane key) -> HybridMemoryFramework. Each worker process (and each
#: in-process sweep) keeps its own: raw addresses and profiling runs
#: are only meaningful within one process (ASLR), so the memo — like
#: the paper's per-process decision cache — never crosses processes.
#: The plan is part of the key because it shapes the memoised
#: (possibly degraded) profiling run.

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
    frameworks: dict,
    plan: FaultPlan | None = None,
    attempt: int = 1,
    plane: PlaneHandle | None = None,
) -> tuple[ResultRow | None, str | None, str | None, dict]:
    """Run one cell; never raises a cell failure (the worker must stay
    healthy).

    Returns ``(row, traceback_text, category, metrics_dict)`` — the
    category is the failure-taxonomy bucket of the captured exception
    (None on success) and the metrics cover only the stages this call
    actually executed, so the parent can sum them into a truthful
    sweep total. ``frameworks`` is the caller's framework memo.

    With a ``plane`` handle, a missing framework is reconstructed
    around the host's shared trace instead of re-profiling
    (``plane_attach`` counted); a torn or vanished plane degrades to
    private materialisation (``plane_fallback`` counted) — never to a
    failed cell.
    """
    key = (
        app.name,
        machine.name,
        seed,
        plan,
        plane.key if plane is not None else None,
    )
    framework = _memo_get(frameworks, key)
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
        evictions = _memo_put(frameworks, key, framework)
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


class InProcessWorkers:
    """The :class:`WorkerSupervisor` interface, run in the calling
    process: the executor of a ``jobs=1`` sweep.

    A submitted cell runs when polled, through the same
    :func:`_execute_cell` a worker runs. Nothing here can preempt a
    cell, so ``cell_deadline`` is enforced post hoc: an attempt over
    it is a transient failure even if it produced a row, counted like
    a worker's deadline kill. ``SystemExit`` and ``KeyboardInterrupt``
    unwind through the sweep.
    """

    def __init__(
        self,
        machine: MachineConfig,
        seed: int,
        plan: FaultPlan | None,
        cell_deadline: float | None = None,
    ) -> None:
        self.machine = machine
        self.seed = seed
        self.plan = plan
        self.cell_deadline = cell_deadline
        self._frameworks: dict = {}
        self._queue: deque = deque()
        self._next_task = 0

    @property
    def capacity(self) -> int:
        return 0 if self._queue else 1

    def submit(self, app, cells: list, attempts: list[int]) -> list[int]:
        task_ids = list(range(self._next_task, self._next_task + len(cells)))
        self._next_task += len(cells)
        self._queue.extend(zip(task_ids, [app] * len(cells), cells, attempts))
        return task_ids

    def poll(self, timeout: float | None = None) -> list[CellResult]:
        """Run every queued cell; ``timeout`` is moot in-process."""
        events = []
        while self._queue:
            task_id, app, cell, attempt = self._queue.popleft()
            start = time.monotonic()
            row, error, category, metrics = _execute_cell(
                app, self.machine, cell, self.seed, self._frameworks,
                self.plan, attempt,
            )
            elapsed = time.monotonic() - start
            deadline = self.cell_deadline
            if deadline is not None and elapsed > deadline:
                row, category = None, CATEGORY_TRANSIENT
                error = (
                    f"{REASON_DEADLINE}: attempt took {elapsed:.3f}s "
                    f"(limit {deadline}s)"
                )
                metrics["counters"][REASON_DEADLINE] = 1
            events.append(CellResult(task_id, row, error, category, metrics))
        return events


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------


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
            app_print = app_fingerprint(app) if need_key else None
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
                        app_print=app_print,
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
                self._execute(pending, result)

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
        """Delay before the attempt after ``attempt_done`` failed: the
        :func:`repro.retry.backoff_delay` schedule keyed on the sweep
        seed and the cell, so cells that failed together (a dead
        worker's batch) spread out instead of stampeding the workers
        in lockstep."""
        return backoff_delay(
            self.config.backoff_seconds, attempt_done, self.config.seed,
            "backoff", token,
        )

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
        """Cells per dispatch.

        Four batches per worker (enough slack for retries and
        stragglers to interleave, few enough dispatches to amortise
        IPC), capped at 32. A batch is one cell in-process, where
        there is no IPC to amortise, and whenever ``cell_deadline`` is
        set, so the limit keeps meaning "per cell".
        """
        if jobs == 1 or self.config.cell_deadline is not None:
            return 1
        return max(1, min(32, math.ceil(n_pending / (4 * jobs))))

    def _execute(
        self,
        pending: list[tuple[SimApplication, CellOutcome, str | None]],
        result: SweepResult,
    ) -> None:
        """Run the pending cells on in-process or supervised workers,
        publishing the shared plane first when one is asked for."""
        config = self.config
        jobs = min(config.jobs, len(pending))
        if config.jobs == 1:
            workers = InProcessWorkers(
                self.machine,
                config.seed,
                config.fault_plan,
                cell_deadline=config.cell_deadline,
            )
            self._schedule(workers, pending, result, jobs)
            return
        plane = (
            SharedTracePlane(backend=config.plane_backend)
            if config.shared_plane
            else None
        )
        try:
            planes = (
                self._publish_planes(plane, pending, result)
                if plane is not None
                else None
            )
            workers = WorkerSupervisor(
                jobs,
                self.machine,
                config.seed,
                config.fault_plan,
                cell_deadline=config.cell_deadline,
                plane_handles=planes,
            )
            with workers:
                self._schedule(workers, pending, result, jobs)
        finally:
            if plane is not None:
                plane.close()

    def _schedule(
        self,
        workers: InProcessWorkers | WorkerSupervisor,
        pending: list[tuple[SimApplication, CellOutcome, str | None]],
        result: SweepResult,
        jobs: int,
    ) -> None:
        """The one scheduling loop: feed ``workers`` same-app batches
        while they have capacity, retry failed cells after their
        backoff, and settle every cell exactly once — under the error
        budget and the circuit breaker."""
        config = self.config
        batch_size = self._batch_size(len(pending), jobs)
        queue = deque(pending)
        #: (ready time, app, outcome, key) waiting out a backoff delay.
        retry_queue: list[
            tuple[float, SimApplication, CellOutcome, str | None]
        ] = []
        #: task id -> (app, outcome, key) of every dispatched cell.
        tasks: dict[int, tuple[SimApplication, CellOutcome, str | None]] = {}
        failures = 0

        def budget_exhausted() -> bool:
            return (
                config.error_budget is not None
                and failures >= config.error_budget
            )

        def submit(app, items) -> None:
            for outcome, _ in items:
                outcome.attempts += 1
            task_ids = workers.submit(
                app,
                [outcome.cell for outcome, _ in items],
                [outcome.attempts for outcome, _ in items],
            )
            for task_id, (outcome, key) in zip(task_ids, items):
                tasks[task_id] = (app, outcome, key)

        def fail(app, outcome, key) -> None:
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

        def settle(event: CellResult) -> None:
            app, outcome, key = tasks.pop(event.task_id)
            outcome.metrics.merge(StageMetrics.from_dict(event.metrics))
            outcome.row, outcome.error = event.row, event.error
            outcome.category = event.category
            if outcome.ok:
                self._finish(result, outcome, key)
            else:
                fail(app, outcome, key)

        while queue or retry_queue or tasks:
            now = time.monotonic()
            if budget_exhausted():
                while queue:
                    _, outcome, key = queue.popleft()
                    self._skip(result, outcome, key)
                # A cell already waiting on a retry keeps its last
                # captured error instead of being granted more attempts.
                for _, _, outcome, key in retry_queue:
                    failures += 1
                    self._finish(result, outcome, key)
                retry_queue.clear()
            else:
                retry_queue.sort(key=lambda item: item[0])
                while (
                    retry_queue
                    and retry_queue[0][0] <= now
                    and workers.capacity > 0
                ):
                    # Retries re-dispatch as single cells: their backoff
                    # already de-batched them. One whose circuit opened
                    # meanwhile settles with its last captured error.
                    _, app, outcome, key = retry_queue.pop(0)
                    if self._breaker.is_open(app.name):
                        failures += 1
                        self._finish(result, outcome, key)
                        continue
                    submit(app, [(outcome, key)])
                while queue and workers.capacity > 0:
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
            if not tasks:
                if retry_queue:
                    time.sleep(max(0.0, retry_queue[0][0] - now))
                continue
            timeout = (
                max(0.0, retry_queue[0][0] - time.monotonic())
                if retry_queue
                else None
            )
            events = deque(workers.poll(timeout))
            while events:
                settle(events.popleft())
                # Caching and journaling a cell fsyncs; a worker that
                # answered meanwhile gets its next batch now, not
                # once the whole answer in hand has settled.
                events.extend(workers.poll(0))


def run_sweep(
    apps: list[SimApplication],
    machine: MachineConfig | None = None,
    grid: ExperimentGrid | None = None,
    jobs: int = 1,
    cache_dir: str | Path | None = None,
    seed: int = 0,
    retries: int = 1,
    backoff_seconds: float = 0.0,
    error_budget: int | None = None,
    fault_plan: FaultPlan | None = None,
    journal_dir: str | Path | None = None,
    resume: bool = False,
    cell_deadline: float | None = None,
    circuit_threshold: int | None = None,
    shared_plane: bool = False,
    plane_backend: str = "shm",
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
            error_budget=error_budget,
            fault_plan=fault_plan,
            journal_dir=journal_dir,
            resume=resume,
            cell_deadline=cell_deadline,
            circuit_threshold=circuit_threshold,
            shared_plane=shared_plane,
            plane_backend=plane_backend,
        ),
    )
    return executor.run(apps, grid=grid)
