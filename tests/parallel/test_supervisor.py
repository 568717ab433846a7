"""Worker supervision: batches, in-band loss events (deadline kills
and dead workers), circuits."""

import time
from pathlib import Path

import pytest

from repro.errors import (
    CATEGORY_DETERMINISTIC,
    CATEGORY_POISONED,
    CATEGORY_TRANSIENT,
    ConfigError,
)
from repro.machine.config import xeon_phi_7250
from repro.parallel.supervisor import (
    REASON_CRASH,
    REASON_DEADLINE,
    CellResult,
    WorkerSupervisor,
)
from repro.pipeline.experiment import enumerate_cells
from repro.retry import CircuitBreaker
from repro.units import MIB
from tests.conftest import TinyApp
from tests.parallel.test_sweep import SMALL_GRID


class SleepyApp(TinyApp):
    """Hangs (sleeps far past any test deadline) on the first
    profiling attempt, recorded via a sentinel file; later attempts —
    on replacement workers — proceed normally."""

    name = "sleepyapp"

    def run_profiling(self, seed=0, tracer_config=None):
        sentinel = Path(self.sentinel)
        if not sentinel.exists():
            sentinel.write_text("hung once")
            time.sleep(60)
        return super().run_profiling(seed=seed, tracer_config=tracer_config)


class FailingApp(TinyApp):
    """Raises the same in-band exception on every profiling attempt."""

    name = "failingapp"

    def run_profiling(self, seed=0, tracer_config=None):
        raise RuntimeError("deterministic model bug")


class AlwaysHangs(TinyApp):
    """Hangs on every attempt — no replacement worker can save it."""

    name = "alwayshangs"

    def run_profiling(self, seed=0, tracer_config=None):
        time.sleep(60)


def drain(supervisor, expected, deadline=30.0):
    """Poll until ``expected`` cell results arrived (or time out)."""
    events = []
    limit = time.monotonic() + deadline
    while len(events) < expected:
        assert time.monotonic() < limit, "supervisor never settled"
        events.extend(supervisor.poll(0.1))
    assert all(isinstance(event, CellResult) for event in events)
    return events


class TestWorkerSupervisor:
    def test_executes_cells(self, machine):
        app = TinyApp()
        cells = enumerate_cells(app, SMALL_GRID)
        with WorkerSupervisor(2, machine, 0, None) as supervisor:
            ids = [supervisor.submit(app, [cell], [1])[0] for cell in cells]
            events = drain(supervisor, len(cells))
        assert sorted(e.task_id for e in events) == sorted(ids)
        assert all(e.row is not None and e.error is None for e in events)

    def test_batch_answers_one_event_per_cell(self, machine):
        app = TinyApp()
        cells = enumerate_cells(app, SMALL_GRID)
        with WorkerSupervisor(1, machine, 0, None) as supervisor:
            ids = supervisor.submit(app, cells[:3], [1, 1, 1])
            ids += supervisor.submit(app, cells[3:], [1] * (len(cells) - 3))
            events = drain(supervisor, len(cells))
        assert sorted(e.task_id for e in events) == ids
        assert all(e.row is not None for e in events)

    def test_worker_failure_reported_in_band(self, machine):
        """An exception inside a cell comes back as a CellResult with
        an error and a category — the worker itself stays alive."""
        app = FailingApp()
        cell = enumerate_cells(app, SMALL_GRID)[0]
        with WorkerSupervisor(1, machine, 0, None) as supervisor:
            (worker,) = supervisor.workers
            supervisor.submit(app, [cell], [1])
            (event,) = drain(supervisor, 1)
            assert list(supervisor.workers) == [worker]
        assert event.row is None
        assert "deterministic model bug" in event.error
        assert event.category == CATEGORY_DETERMINISTIC

    def test_deadline_kill_requeues_and_recovers(self, machine, tmp_path):
        """The supervisor does not requeue an overrun attempt itself:
        the worker is killed and replaced, the cell comes back as a
        transient ``deadline`` failure, and the caller's resubmission
        recovers on the replacement worker."""
        app = SleepyApp()
        app.sentinel = str(tmp_path / "sentinel")
        cell = enumerate_cells(app, SMALL_GRID)[0]
        supervisor = WorkerSupervisor(1, machine, 0, None, cell_deadline=1.0)
        with supervisor:
            (victim,) = supervisor.workers
            supervisor.submit(app, [cell], [1])
            (event,) = drain(supervisor, 1)
            assert victim not in supervisor.workers
            assert len(supervisor.workers) == 1
            supervisor.submit(app, [cell], [2])
            (retried,) = drain(supervisor, 1)
        assert event.row is None
        assert event.category == CATEGORY_TRANSIENT
        assert event.error.startswith(f"{REASON_DEADLINE}:")
        assert event.metrics["counters"] == {REASON_DEADLINE: 1}
        assert retried.row is not None and retried.error is None

    def test_requeue_budget_bounds_a_hopeless_cell(self, machine):
        """A cell that overruns on every attempt costs exactly one
        deadline-bounded attempt per submission: the caller's retry
        budget (here one retry, so two submissions) is the only bound,
        and nothing is left running or queued afterwards."""
        app = AlwaysHangs()
        cell = enumerate_cells(app, SMALL_GRID)[0]
        retries = 1
        supervisor = WorkerSupervisor(1, machine, 0, None, cell_deadline=0.5)
        events = []
        with supervisor:
            for attempt in range(1, retries + 2):
                supervisor.submit(app, [cell], [attempt])
                started = time.monotonic()
                events += drain(supervisor, 1)
                assert time.monotonic() - started < 10.0
            assert supervisor.poll(0.2) == []
            assert all(w.batch is None for w in supervisor.workers.values())
            assert len(supervisor.workers) == 1
        assert len(events) == retries + 1
        for event in events:
            assert event.row is None
            assert event.category == CATEGORY_TRANSIENT
            assert event.error.startswith(f"{REASON_DEADLINE}:")
            assert event.metrics["counters"] == {REASON_DEADLINE: 1}

    def test_timeout_kills_worker_and_fails_cell_in_band(self, machine):
        """A timed-out attempt is not requeued: the worker is replaced
        and the cell comes back as a transient failure, naming and
        counting the deadline, for the sweep to retry."""
        app = AlwaysHangs()
        cell = enumerate_cells(app, SMALL_GRID)[0]
        supervisor = WorkerSupervisor(1, machine, 0, None, cell_deadline=0.5)
        with supervisor:
            (victim,) = supervisor.workers
            supervisor.submit(app, [cell], [1])
            (event,) = drain(supervisor, 1)
            assert victim not in supervisor.workers
            assert len(supervisor.workers) == 1
        assert event.row is None
        assert event.category == CATEGORY_TRANSIENT
        assert event.error.startswith(f"{REASON_DEADLINE}:")
        assert event.metrics["counters"] == {REASON_DEADLINE: 1}

    def test_killed_worker_is_replaced_and_cell_fails(self, machine):
        app = TinyApp()
        cells = enumerate_cells(app, SMALL_GRID)[:2]
        with WorkerSupervisor(1, machine, 0, None) as supervisor:
            for cell in cells:
                supervisor.submit(app, [cell], [1])
            # Murder the worker out-of-band mid-sweep.
            victim = next(iter(supervisor.workers.values()))
            victim.proc.kill()
            events = drain(supervisor, len(cells))
            assert victim.ident not in supervisor.workers
            assert len(supervisor.workers) == 1
        lost = [e for e in events if e.row is None]
        assert lost
        for event in lost:
            assert event.category == CATEGORY_TRANSIENT
            assert event.error.startswith(f"{REASON_CRASH}:")
            assert event.metrics["counters"] == {REASON_CRASH: 1}
        # The queued cell ran on the replacement worker.
        assert any(e.row is not None for e in events)

    def test_validation(self, machine):
        with pytest.raises(ConfigError):
            WorkerSupervisor(0, machine, 0, None)
        # NaN would disarm the deadline silently: every comparison
        # with it is False.
        for deadline in (0, float("nan"), float("inf")):
            with pytest.raises(ConfigError):
                WorkerSupervisor(1, machine, 0, None, cell_deadline=deadline)


class TestCircuitBreaker:
    def test_opens_after_threshold_deterministic_failures(self):
        breaker = CircuitBreaker(2)
        breaker.record_failure("app", CATEGORY_DETERMINISTIC)
        assert not breaker.is_open("app")
        breaker.record_failure("app", CATEGORY_POISONED)
        assert breaker.is_open("app")
        assert not breaker.is_open("other")

    def test_transient_failures_never_count(self):
        breaker = CircuitBreaker(1)
        for _ in range(10):
            breaker.record_failure("app", CATEGORY_TRANSIENT)
        assert not breaker.is_open("app")

    def test_none_threshold_disables(self):
        breaker = CircuitBreaker(None)
        for _ in range(10):
            breaker.record_failure("app", CATEGORY_DETERMINISTIC)
        assert not breaker.is_open("app")

    def test_rejects_bad_threshold(self):
        with pytest.raises(ConfigError):
            CircuitBreaker(0)
