"""Worker processes for the sweep executor.

The supervisor owns its workers directly, so it can kill and replace
any one of them: each is a ``multiprocessing.Process`` driven over a
duplex pipe. A worker executes one batch of same-application cells at
a time and answers with one ``(row, error, category, metrics)`` tuple
per cell; the parent keeps at most one more batch queued per worker,
handed over the moment the worker's answer is read, so the worker
computes while the parent journals and caches what it just returned.
Queued batches wait in the parent, not in a worker's pipe, so
whichever worker frees up first takes the next one: batches differ
in cost, and a batch pinned behind a slow one would leave its
neighbour idle.

The parent's supervision state machine, per worker::

    spawned -> idle -> busy(batch, limit) -> idle -> ...
                         |
                         +-- timeout exceeded ---> killed, cells fail (timeout)
                         +-- deadline exceeded --> killed, batch requeued
                         +-- process died (EOF) -> batch requeued

A batch's time limit is ``timeout_seconds`` (or ``cell_deadline``,
whichever is shorter) per cell; the sweep pins batches to one cell
whenever either is set. A timeout is an in-band failure: the cells
settle as transient errors and the sweep retries them under its
``retries``. Any other loss requeues the batch, *bounded* by
``requeue_budget``; a batch that outlives the budget surfaces as
terminal :class:`CellAborted` events carrying a transient-category
error, so the sweep records an honest failure instead of looping
forever. Killed and dead workers are replaced immediately, keeping
the pool at strength.

Execution is at-least-once: a worker killed in the instant between
finishing a batch and the parent reading its answer causes one wasted
re-execution, but outcomes settle exactly once (the dead worker's pipe
is never read again).
"""

from __future__ import annotations

import multiprocessing
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait
from typing import Any

from repro.errors import (
    CATEGORY_TRANSIENT,
    CellDeadlineError,
    ConfigError,
    WorkerCrashError,
)
from repro.parallel.watchdog import start_orphan_watchdog

#: Worker-loss reasons (also used as metric counter names by the sweep).
REASON_CRASH = "worker_crash"
REASON_DEADLINE = "deadline_kill"
REASON_TIMEOUT = "timeout"


def _worker_main(conn, machine, seed, plan, plane_handles: dict) -> None:
    """Worker loop: receive a batch, execute its cells, send the
    answers, repeat until the parent sends ``None``.

    ``plane_handles`` (application name -> plane handle) lets each
    cell reconstruct its framework from the host's shared trace plane
    instead of re-profiling; apps without a handle — or with a torn
    plane — materialise privately. A cell that raises ``SystemExit``
    ends the process, which the parent handles as a crashed worker.
    """
    # Imported here, not at module top: repro.parallel.sweep imports
    # this module, and the worker needs sweep's _execute_cell.
    from repro.parallel.sweep import _execute_cell

    start_orphan_watchdog()
    frameworks: dict = {}
    try:
        while (message := conn.recv()) is not None:
            app, cells, attempts = message
            plane = plane_handles.get(app.name)
            conn.send(
                [
                    _execute_cell(
                        app, machine, cell, seed, frameworks, plan, attempt,
                        plane=plane,
                    )
                    for cell, attempt in zip(cells, attempts)
                ]
            )
    except (EOFError, OSError, KeyboardInterrupt):
        pass


@dataclass
class Batch:
    """Same-application cells dispatched to one worker together."""

    app: Any
    task_ids: list[int]
    cells: list
    #: Attempt number per cell, passed to the worker; bumped on every
    #: requeue so seeded fault injection sees requeues as fresh attempts.
    attempts: list[int]
    requeues: int = 0


@dataclass
class WorkerHandle:
    """Parent-side view of one worker process."""

    ident: int
    proc: multiprocessing.Process
    conn: Any
    batch: Batch | None = None
    #: Monotonic time by which the batch must be answered.
    limit: float | None = None


# -- events the poll loop emits --------------------------------------------


@dataclass
class CellResult:
    """A cell finished (successfully or not) in-band."""

    task_id: int
    row: Any
    error: str | None
    category: str | None
    metrics: dict


@dataclass
class CellRequeued:
    """A cell's worker was lost; the cell went back to the queue."""

    task_id: int
    reason: str
    requeues: int


@dataclass
class CellAborted:
    """A cell exhausted its requeue budget; terminal failure."""

    task_id: int
    error: str
    category: str
    reason: str


class WorkerSupervisor:
    """Own, feed, watch, kill and replace a fleet of cell workers."""

    def __init__(
        self,
        jobs: int,
        machine,
        seed: int,
        plan,
        *,
        cell_deadline: float | None = None,
        timeout_seconds: float | None = None,
        requeue_budget: int = 2,
        plane_handles: dict | None = None,
    ) -> None:
        if jobs < 1:
            raise ConfigError("supervisor needs at least one worker")
        if cell_deadline is not None and cell_deadline <= 0:
            raise ConfigError("cell_deadline must be positive")
        if requeue_budget < 0:
            raise ConfigError("requeue_budget must be >= 0")
        self.jobs = jobs
        self.machine = machine
        self.seed = seed
        self.plan = plan
        self.plane_handles = plane_handles or {}
        self.cell_deadline = cell_deadline
        self.timeout_seconds = timeout_seconds
        self.requeue_budget = requeue_budget
        #: (seconds per cell, loss reason) of the tighter time limit;
        #: a timeout wins a tie.
        limits = [
            (seconds, reason)
            for seconds, reason in (
                (timeout_seconds, REASON_TIMEOUT),
                (cell_deadline, REASON_DEADLINE),
            )
            if seconds is not None
        ]
        self._limit = min(limits, key=lambda l: l[0]) if limits else None
        self._ctx = multiprocessing.get_context()
        self.workers: dict[int, WorkerHandle] = {}
        self._queue: deque[Batch] = deque()
        self._next_worker = 0
        self._next_task = 0
        #: Workers killed/lost, by reason (observability roll-up).
        self.losses: dict[str, int] = {}

    # -- lifecycle ------------------------------------------------------

    def start(self) -> None:
        for _ in range(self.jobs):
            self._spawn()

    def stop(self) -> None:
        """Shut every worker down, escalating politely-then-SIGKILL."""
        for handle in self.workers.values():
            try:
                handle.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for handle in self.workers.values():
            handle.proc.join(timeout=1.0)
            if handle.proc.is_alive():
                handle.proc.kill()
                handle.proc.join(timeout=1.0)
            handle.conn.close()
        self.workers.clear()
        self._queue.clear()

    def __enter__(self) -> "WorkerSupervisor":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _spawn(self) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(
                child_conn,
                self.machine,
                self.seed,
                self.plan,
                self.plane_handles,
            ),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        handle = WorkerHandle(
            ident=self._next_worker, proc=proc, conn=parent_conn
        )
        self._next_worker += 1
        self.workers[handle.ident] = handle

    # -- feeding --------------------------------------------------------

    @property
    def capacity(self) -> int:
        """Batches the supervisor accepts right now: one running and
        one queued per worker (requeued batches count against it)."""
        busy = sum(1 for w in self.workers.values() if w.batch is not None)
        return max(0, 2 * len(self.workers) - busy - len(self._queue))

    def submit(self, app, cells: list, attempts: list[int]) -> list[int]:
        """Accept one batch of ``app``'s cells; returns a task id per
        cell, in order."""
        task_ids = list(range(self._next_task, self._next_task + len(cells)))
        self._next_task += len(cells)
        self._queue.append(Batch(app, task_ids, list(cells), list(attempts)))
        self._dispatch()
        return task_ids

    def _dispatch(self) -> None:
        for handle in self.workers.values():
            if not self._queue:
                return
            if handle.batch is not None:
                continue
            batch = self._queue.popleft()
            try:
                handle.conn.send((batch.app, batch.cells, batch.attempts))
            except (BrokenPipeError, OSError):
                # Dead worker discovered at dispatch: put the batch
                # back; the poll loop reaps and replaces the worker.
                self._queue.appendleft(batch)
                continue
            handle.batch = batch
            # The clock starts at dispatch (not when the worker picks
            # the batch up), so a worker dead-on-arrival still trips it.
            if self._limit is not None:
                handle.limit = (
                    time.monotonic() + self._limit[0] * len(batch.cells)
                )

    # -- supervision ----------------------------------------------------

    def _lose_worker(self, handle: WorkerHandle, reason: str) -> list:
        """Reap one lost worker, replace it, and settle its batch: a
        timeout fails the cells in-band, any other loss requeues the
        batch or, past the budget, aborts it."""
        self.losses[reason] = self.losses.get(reason, 0) + 1
        del self.workers[handle.ident]
        if handle.proc.is_alive():
            handle.proc.kill()
        handle.proc.join(timeout=1.0)
        handle.conn.close()
        self._spawn()
        batch = handle.batch
        if batch is None:
            return []
        if reason == REASON_TIMEOUT:
            error = (
                f"timeout: attempt exceeded {self.timeout_seconds}s; "
                "worker killed"
            )
            return [
                CellResult(
                    task_id, None, error, CATEGORY_TRANSIENT,
                    {"counters": {"timeout": 1}},
                )
                for task_id in batch.task_ids
            ]
        if batch.requeues < self.requeue_budget:
            batch.requeues += 1
            batch.attempts = [attempt + 1 for attempt in batch.attempts]
            self._queue.appendleft(batch)
            return [
                CellRequeued(task_id, reason, batch.requeues)
                for task_id in batch.task_ids
            ]
        if reason == REASON_DEADLINE:
            exc: Exception = CellDeadlineError(
                f"cell exceeded its {self.cell_deadline}s deadline "
                f"on {batch.requeues + 1} worker(s); worker killed"
            )
        else:
            exc = WorkerCrashError(
                f"worker died executing the cell ({reason}); "
                f"requeue budget ({self.requeue_budget}) exhausted"
            )
        return [
            CellAborted(task_id, str(exc), exc.category, reason)
            for task_id in batch.task_ids
        ]

    def _receive(self, handle: WorkerHandle) -> list:
        """Read a worker's answer if one is waiting; a closed pipe
        means the worker died."""
        try:
            if not handle.conn.poll():
                return []
            answers = handle.conn.recv()
        except (EOFError, OSError):
            return self._lose_worker(handle, REASON_CRASH)
        batch, handle.batch, handle.limit = handle.batch, None, None
        return [
            CellResult(task_id, *answer)
            for task_id, answer in zip(batch.task_ids, answers)
        ]

    def poll(self, timeout: float | None = None) -> list:
        """Wait up to ``timeout`` seconds (None: until a worker answers
        or dies) but never past the nearest time limit; read answers,
        reap lost and overdue workers, refill idle ones. Returns the
        events."""
        self._dispatch()
        limits = [w.limit for w in self.workers.values() if w.limit]
        if limits:
            until = min(limits) - time.monotonic()
            timeout = until if timeout is None else min(timeout, until)
        conns = {w.conn: w for w in self.workers.values()}
        ready = wait(
            list(conns), timeout=None if timeout is None else max(0.0, timeout)
        )
        events: list = []
        for conn in ready:
            events.extend(self._receive(conns[conn]))
        now = time.monotonic()
        for handle in list(self.workers.values()):
            if handle.limit is not None and now > handle.limit:
                # Salvage an answer that landed after the wait — cheap,
                # and avoids one wasted re-execution.
                events.extend(self._receive(handle))
                if handle.batch is not None and handle.ident in self.workers:
                    events.extend(self._lose_worker(handle, self._limit[1]))
        self._dispatch()
        return events
