"""Online re-advising: windowed attribution, migration, scoring —
hardened with degraded windows, migration rollback and resume by
deterministic replay of a per-window decision log."""

from repro.online.daemon import (
    DECISION_LOG_FILENAME,
    OnlineConfig,
    OnlineDaemon,
    OnlineRun,
    WindowDecision,
    run_online,
)
from repro.online.migration import (
    DEMOTE,
    PROMOTE,
    HysteresisFilter,
    MigrationAction,
    MigrationFailure,
    diff_placements,
)
from repro.online.scoring import (
    OnlineOutcome,
    evaluate_one_shot,
    evaluate_online,
    run_windowed,
    windowed_cost,
)

__all__ = [
    "DECISION_LOG_FILENAME",
    "DEMOTE",
    "PROMOTE",
    "HysteresisFilter",
    "MigrationAction",
    "MigrationFailure",
    "OnlineConfig",
    "OnlineDaemon",
    "OnlineOutcome",
    "OnlineRun",
    "WindowDecision",
    "diff_placements",
    "evaluate_one_shot",
    "evaluate_online",
    "run_online",
    "run_windowed",
    "windowed_cost",
]
