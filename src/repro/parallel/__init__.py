"""SPMD execution substrate (MPI substitute) and the sweep executor."""

from repro.parallel.job import SPMDJob, JobSummary
from repro.parallel.journal import (
    JournalReplay,
    SweepJournal,
    read_journal,
)
from repro.parallel.result_cache import ResultCache, cell_cache_key
from repro.parallel.supervisor import WorkerSupervisor
from repro.parallel.sweep import (
    CellOutcome,
    SweepConfig,
    SweepExecutor,
    SweepResult,
    run_sweep,
)
from repro.retry import CircuitBreaker

__all__ = [
    "SPMDJob",
    "JobSummary",
    "ResultCache",
    "cell_cache_key",
    "CellOutcome",
    "SweepConfig",
    "SweepExecutor",
    "SweepResult",
    "run_sweep",
    "SweepJournal",
    "JournalReplay",
    "read_journal",
    "WorkerSupervisor",
    "CircuitBreaker",
]
