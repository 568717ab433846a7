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
                         +-- deadline exceeded --> killed, replaced
                         +-- process died (EOF) -> replaced

A batch's time limit is ``cell_deadline`` per cell; the sweep pins
batches to one cell whenever it is set. A lost worker is killed (if
still alive) and replaced immediately, keeping the pool at strength,
and every cell of its batch settles *in-band* as a transient
:class:`CellResult` whose error names the cause and whose metrics
count it. The sweep retries those cells under its ``retries``, like
any other transient failure: there is one way to lose an attempt.

Execution is at-least-once: a worker killed in the instant between
finishing a batch and the parent reading its answer costs its cells
one retry, but outcomes settle exactly once (the dead worker's pipe
is never read again).
"""

from __future__ import annotations

import math
import multiprocessing
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait
from typing import Any

from repro.errors import CATEGORY_TRANSIENT, ConfigError
from repro.parallel.watchdog import start_orphan_watchdog

#: Worker-loss reasons, also the metric counter each lost cell bumps.
REASON_CRASH = "worker_crash"
REASON_DEADLINE = "deadline"


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
    #: Attempt number per cell, passed to the worker so seeded fault
    #: injection sees every retry as a fresh attempt.
    attempts: list[int]


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
        plane_handles: dict | None = None,
    ) -> None:
        if jobs < 1:
            raise ConfigError("supervisor needs at least one worker")
        if cell_deadline is not None and not 0 < cell_deadline < math.inf:
            raise ConfigError("cell_deadline must be finite and positive")
        self.jobs = jobs
        self.machine = machine
        self.seed = seed
        self.plan = plan
        self.plane_handles = plane_handles or {}
        self.cell_deadline = cell_deadline
        self._ctx = multiprocessing.get_context()
        self.workers: dict[int, WorkerHandle] = {}
        self._queue: deque[Batch] = deque()
        self._next_worker = 0
        self._next_task = 0

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
        one queued per worker."""
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
            if self.cell_deadline is not None:
                handle.limit = (
                    time.monotonic() + self.cell_deadline * len(batch.cells)
                )

    # -- supervision ----------------------------------------------------

    def _lose_worker(self, handle: WorkerHandle, reason: str) -> list:
        """Reap one lost worker, replace it, and fail its batch's cells
        in-band as transient errors that name (and count) the cause."""
        del self.workers[handle.ident]
        if handle.proc.is_alive():
            handle.proc.kill()
        handle.proc.join(timeout=1.0)
        handle.conn.close()
        self._spawn()
        if handle.batch is None:
            return []
        if reason == REASON_DEADLINE:
            error = (
                f"{reason}: attempt exceeded {self.cell_deadline}s; "
                "worker killed"
            )
        else:
            error = f"{reason}: worker died executing the cell"
        return [
            CellResult(
                task_id, None, error, CATEGORY_TRANSIENT,
                {"counters": {reason: 1}},
            )
            for task_id in handle.batch.task_ids
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
                    events.extend(self._lose_worker(handle, REASON_DEADLINE))
        self._dispatch()
        return events
