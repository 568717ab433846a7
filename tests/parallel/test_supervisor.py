"""Worker supervision: batches, deadline and timeout kills, requeues,
circuits."""

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
    REASON_DEADLINE,
    REASON_TIMEOUT,
    CellAborted,
    CellRequeued,
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
    """Poll until ``expected`` terminal events arrived (or time out)."""
    terminal = []
    others = []
    limit = time.monotonic() + deadline
    while len(terminal) < expected:
        assert time.monotonic() < limit, "supervisor never settled"
        for event in supervisor.poll(0.1):
            if isinstance(event, (CellResult, CellAborted)):
                terminal.append(event)
            else:
                others.append(event)
    return terminal, others


class TestWorkerSupervisor:
    def test_executes_cells(self, machine):
        app = TinyApp()
        cells = enumerate_cells(app, SMALL_GRID)
        with WorkerSupervisor(2, machine, 0, None) as supervisor:
            ids = [supervisor.submit(app, [cell], [1])[0] for cell in cells]
            terminal, _ = drain(supervisor, len(cells))
        assert sorted(e.task_id for e in terminal) == sorted(ids)
        assert all(isinstance(e, CellResult) for e in terminal)
        assert all(e.row is not None and e.error is None for e in terminal)

    def test_batch_answers_one_event_per_cell(self, machine):
        app = TinyApp()
        cells = enumerate_cells(app, SMALL_GRID)
        with WorkerSupervisor(1, machine, 0, None) as supervisor:
            ids = supervisor.submit(app, cells[:3], [1, 1, 1])
            ids += supervisor.submit(app, cells[3:], [1] * (len(cells) - 3))
            terminal, _ = drain(supervisor, len(cells))
        assert sorted(e.task_id for e in terminal) == ids
        assert all(e.row is not None for e in terminal)

    def test_worker_failure_reported_in_band(self, machine):
        """An exception inside a cell comes back as a CellResult with
        an error and a category — the worker itself stays alive."""
        app = FailingApp()
        cell = enumerate_cells(app, SMALL_GRID)[0]
        with WorkerSupervisor(1, machine, 0, None) as supervisor:
            supervisor.submit(app, [cell], [1])
            terminal, _ = drain(supervisor, 1)
        (event,) = terminal
        assert isinstance(event, CellResult)
        assert event.row is None
        assert "deterministic model bug" in event.error
        assert event.category == CATEGORY_DETERMINISTIC
        assert supervisor.losses == {}

    def test_deadline_kill_requeues_and_recovers(self, machine, tmp_path):
        app = SleepyApp()
        app.sentinel = str(tmp_path / "sentinel")
        cell = enumerate_cells(app, SMALL_GRID)[0]
        supervisor = WorkerSupervisor(
            1, machine, 0, None, cell_deadline=1.0, requeue_budget=2
        )
        with supervisor:
            supervisor.submit(app, [cell], [1])
            terminal, others = drain(supervisor, 1)
        (event,) = terminal
        assert isinstance(event, CellResult)
        assert event.row is not None
        requeues = [e for e in others if isinstance(e, CellRequeued)]
        assert len(requeues) == 1
        assert requeues[0].reason == REASON_DEADLINE
        assert supervisor.losses == {REASON_DEADLINE: 1}

    def test_requeue_budget_bounds_a_hopeless_cell(self, machine, tmp_path):
        app = AlwaysHangs()
        cell = enumerate_cells(app, SMALL_GRID)[0]
        supervisor = WorkerSupervisor(
            1, machine, 0, None, cell_deadline=0.5, requeue_budget=1
        )
        with supervisor:
            supervisor.submit(app, [cell], [1])
            terminal, others = drain(supervisor, 1)
        (event,) = terminal
        assert isinstance(event, CellAborted)
        assert event.category == CATEGORY_TRANSIENT
        assert "deadline" in event.error
        assert sum(1 for e in others if isinstance(e, CellRequeued)) == 1
        assert supervisor.losses[REASON_DEADLINE] == 2

    def test_timeout_kills_worker_and_fails_cell_in_band(self, machine):
        """A timeout is not requeued: the worker is replaced and the
        cell comes back as a transient failure for the sweep to retry."""
        app = AlwaysHangs()
        cell = enumerate_cells(app, SMALL_GRID)[0]
        supervisor = WorkerSupervisor(
            1, machine, 0, None, timeout_seconds=0.5, requeue_budget=2
        )
        with supervisor:
            supervisor.submit(app, [cell], [1])
            terminal, others = drain(supervisor, 1)
            assert len(supervisor.workers) == 1
        (event,) = terminal
        assert isinstance(event, CellResult)
        assert event.row is None
        assert event.category == CATEGORY_TRANSIENT
        assert "timeout" in event.error
        assert event.metrics["counters"] == {"timeout": 1}
        assert others == []
        assert supervisor.losses == {REASON_TIMEOUT: 1}

    def test_killed_worker_is_replaced_and_cell_requeued(self, machine):
        app = TinyApp()
        cells = enumerate_cells(app, SMALL_GRID)[:2]
        with WorkerSupervisor(1, machine, 0, None) as supervisor:
            for cell in cells:
                supervisor.submit(app, [cell], [1])
            # Murder the worker out-of-band mid-sweep.
            victim = next(iter(supervisor.workers.values()))
            victim.proc.kill()
            terminal, others = drain(supervisor, len(cells))
        assert all(isinstance(e, CellResult) for e in terminal)
        assert all(e.row is not None for e in terminal)
        assert any(isinstance(e, CellRequeued) for e in others)
        assert supervisor.losses.get("worker_crash", 0) >= 1

    def test_validation(self, machine):
        with pytest.raises(ConfigError):
            WorkerSupervisor(0, machine, 0, None)
        with pytest.raises(ConfigError):
            WorkerSupervisor(1, machine, 0, None, cell_deadline=0)
        with pytest.raises(ConfigError):
            WorkerSupervisor(1, machine, 0, None, requeue_budget=-1)


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
