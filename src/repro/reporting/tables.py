"""ASCII tables in the shape of the paper's figures and tables.

The benchmark harness prints the same rows/series the paper reports;
these helpers keep that formatting in one place.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.pipeline.metrics import STAGE_NAMES, StageMetrics
from repro.pipeline.results import ExperimentResult
from repro.units import MIB

if TYPE_CHECKING:
    from repro.faults.resilience import ResilienceTable


class AsciiTable:
    """Minimal fixed-width table renderer."""

    def __init__(self, headers: Sequence[str]) -> None:
        self.headers = list(headers)
        self.rows: list[list[str]] = []

    def add_row(self, *cells: object) -> None:
        row = [self._fmt(c) for c in cells]
        if len(row) != len(self.headers):
            raise ValueError(
                f"row has {len(row)} cells, table has {len(self.headers)}"
            )
        self.rows.append(row)

    @staticmethod
    def _fmt(cell: object) -> str:
        if isinstance(cell, float):
            if cell == 0:
                return "0"
            if abs(cell) >= 1000:
                return f"{cell:,.0f}"
            if abs(cell) >= 1:
                return f"{cell:.2f}"
            return f"{cell:.4g}"
        return str(cell)

    def render(self) -> str:
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = []
        sep = "-+-".join("-" * w for w in widths)
        lines.append(" | ".join(h.ljust(w) for h, w in zip(self.headers, widths)))
        lines.append(sep)
        for row in self.rows:
            lines.append(
                " | ".join(c.rjust(w) for c, w in zip(row, widths))
            )
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def format_figure4(result: ExperimentResult) -> str:
    """The three panels of one Figure 4 row, as text tables."""
    fom_ddr = result.fom_ddr
    out = [f"== {result.application}: {result.fom_name} ({result.fom_units}) =="]

    fom = AsciiTable(
        ["budget"] + result.strategies()
    )
    hwm = AsciiTable(["budget"] + result.strategies())
    eff = AsciiTable(["budget"] + result.strategies())
    for budget in result.budgets():
        label = f"{budget // MIB} MB"
        fom.add_row(
            label,
            *[result.row(budget, s).fom for s in result.strategies()],
        )
        hwm.add_row(
            label,
            *[result.row(budget, s).hwm_mb for s in result.strategies()],
        )
        eff.add_row(
            label,
            *[
                result.row(budget, s).delta_fom_per_mb(fom_ddr)
                for s in result.strategies()
            ],
        )
    out.append("-- FOM --")
    out.append(fom.render())
    out.append("-- MCDRAM HWM (MB) --")
    out.append(hwm.render())
    out.append("-- dFOM/MByte --")
    out.append(eff.render())
    out.append(format_baselines(result))
    return "\n".join(out)


def format_stage_metrics(metrics: StageMetrics) -> str:
    """Execution counts and wall time of the four pipeline stages, in
    pipeline order, plus the sweep's cache/fault bookkeeping counters."""
    table = AsciiTable(["stage", "executions", "seconds"])
    for stage in STAGE_NAMES:
        table.add_row(stage, metrics.count(stage), metrics.wall_seconds(stage))
    table.add_row(
        "total", metrics.total_stage_executions, metrics.total_stage_seconds
    )
    lines = ["-- stage metrics --", table.render()]
    bookkeeping = [
        (name, metrics.count(name))
        for name in BOOKKEEPING_COUNTERS
        if metrics.count(name)
    ]
    if bookkeeping:
        lines.append(
            "counters: "
            + ", ".join(f"{name}={n}" for name, n in bookkeeping)
        )
    return "\n".join(lines)


#: Bookkeeping counters the sweep/fault layers add next to the four
#: pipeline stages, in display order.
BOOKKEEPING_COUNTERS: tuple[str, ...] = (
    "cache_hit",
    "cache_miss",
    "journal_replay",
    "plane_publish",
    "plane_publish_failed",
    "plane_attach",
    "plane_fallback",
    "framework_evicted",
    "retry",
    "error",
    "deadline",
    "worker_crash",
    "skipped",
    "circuit_open",
    "oom",
    "cell_killed",
    "cell_hung",
    "hbw_fallback",
    "aslr_recovery",
    "samples_dropped",
    "samples_corrupted",
)


def format_resilience(table: "ResilienceTable") -> str:
    """The resilience ladder as one text table (``repro-faults``)."""
    out = [
        "== resilience sweep: "
        + ", ".join(table.applications)
        + " =="
    ]
    ascii_table = AsciiTable(
        [
            "factor",
            "cells",
            "ok",
            "failed",
            "skipped",
            "retries",
            "deadlines",
            "oom",
            "killed",
            "hung",
            "hbw fallbacks",
            "samples lost",
            "aslr recov",
            "FOM quality",
        ]
    )
    for row in table.rows:
        ascii_table.add_row(
            f"{row.factor:g}",
            row.cells_total,
            row.cells_ok,
            row.cells_failed,
            row.cells_skipped,
            row.retries,
            row.deadlines,
            row.ooms,
            row.cells_killed,
            row.cells_hung,
            row.hbw_fallbacks,
            row.samples_dropped + row.samples_corrupted,
            row.aslr_recoveries,
            "n/a" if row.fom_quality is None else f"{row.fom_quality:.3f}",
        )
    out.append(ascii_table.render())
    out.append(
        f"worst-case cell survival: {table.worst_survival:.0%}"
    )
    return "\n".join(out)


def format_baselines(result: ExperimentResult) -> str:
    table = AsciiTable(["condition", result.fom_name, "vs DDR %"])
    fom_ddr = result.fom_ddr
    for label, row in result.baselines.items():
        gain = (row.fom / fom_ddr - 1.0) * 100.0
        table.add_row(label, row.fom, gain)
    best = result.best_framework()
    table.add_row(
        f"framework best ({best.label}, {best.budget_mb:.0f} MB)",
        best.fom,
        (best.fom / fom_ddr - 1.0) * 100.0,
    )
    return "-- baselines --\n" + table.render()
