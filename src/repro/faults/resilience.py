"""Resilience sweeps: the Figure-4 grid under escalating degradation.

``run_resilience_sweep`` executes the same sweep the evaluation uses,
once per fault intensity (``plan.scaled(factor)`` for each ladder
factor), and condenses each run into a :class:`ResilienceRow`: how
many cells survived, what degradation events fired, and how much
placement quality (FOM relative to the clean run of the same cell)
was lost. The factor-0 rung runs with no plan at all, so it doubles
as the clean reference the quality column is normalised against.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING

from repro.apps.base import SimApplication
from repro.faults.plan import FaultPlan
from repro.machine.config import MachineConfig

if TYPE_CHECKING:
    from repro.parallel.sweep import SweepConfig

#: Default fault-intensity ladder (0 = clean reference).
DEFAULT_FACTORS: tuple[float, ...] = (0.0, 0.5, 1.0)


@dataclass(frozen=True)
class ResilienceRow:
    """One rung of the fault-intensity ladder, summarised."""

    factor: float
    plan: FaultPlan | None
    cells_total: int
    cells_ok: int
    cells_failed: int
    cells_skipped: int
    retries: int
    #: Cell attempts that overran ``cell_deadline``.
    deadlines: int
    ooms: int
    cells_killed: int
    cells_hung: int
    hbw_fallbacks: int
    samples_dropped: int
    samples_corrupted: int
    aslr_recoveries: int
    #: Mean per-cell FOM relative to the clean rung's same cell
    #: (1.0 = no quality loss); None when no comparable cell survived.
    fom_quality: float | None

    @property
    def survival_rate(self) -> float:
        """Fraction of cells that produced a row."""
        if self.cells_total == 0:
            return 1.0
        return self.cells_ok / self.cells_total


@dataclass
class ResilienceTable:
    """The full ladder for one set of applications."""

    applications: tuple[str, ...]
    rows: list[ResilienceRow] = field(default_factory=list)

    @property
    def worst_survival(self) -> float:
        return min((r.survival_rate for r in self.rows), default=1.0)


def run_resilience_sweep(
    apps: list[SimApplication],
    plan: FaultPlan,
    factors: tuple[float, ...] = DEFAULT_FACTORS,
    machine: MachineConfig | None = None,
    grid=None,
    config: SweepConfig | None = None,
) -> ResilienceTable:
    """Run the Figure-4 sweep at every rung of the fault ladder.

    ``config`` carries the sweep knobs every rung shares; each rung
    replaces its ``fault_plan`` with the scaled plan. With
    ``config.journal_dir`` set, each rung journals (and resumes) under
    its own ``rung-<factor>`` subdirectory — rungs are distinct sweeps
    with distinct identities, so they must never share a journal.
    """
    # Imported lazily: repro.parallel.sweep itself imports this
    # package, so a top-level import here would be circular.
    from repro.parallel.supervisor import REASON_DEADLINE
    from repro.parallel.sweep import SweepConfig, SweepExecutor

    config = config or SweepConfig()
    table = ResilienceTable(applications=tuple(a.name for a in apps))
    clean_foms: dict[tuple, float] = {}
    for factor in factors:
        rung_plan = None if factor == 0 else plan.scaled(factor)
        rung_journal = (
            Path(config.journal_dir) / f"rung-{factor:g}"
            if config.journal_dir is not None
            else None
        )
        rung_config = replace(
            config, fault_plan=rung_plan, journal_dir=rung_journal
        )
        result = SweepExecutor(machine=machine, config=rung_config).run(
            list(apps), grid=grid
        )
        if factor == 0:
            for outcome in result.outcomes:
                if outcome.ok:
                    clean_foms[
                        (outcome.application, outcome.cell.key)
                    ] = outcome.row.fom
        qualities = [
            outcome.row.fom / clean
            for outcome in result.outcomes
            if outcome.ok
            for clean in (
                clean_foms.get((outcome.application, outcome.cell.key)),
            )
            if clean
        ]
        counters = result.metrics
        ok = sum(1 for o in result.outcomes if o.ok)
        skipped = sum(1 for o in result.outcomes if o.skipped)
        table.rows.append(
            ResilienceRow(
                factor=factor,
                plan=rung_plan,
                cells_total=len(result.outcomes),
                cells_ok=ok,
                cells_failed=len(result.outcomes) - ok - skipped,
                cells_skipped=skipped,
                retries=counters.count("retry"),
                deadlines=counters.count(REASON_DEADLINE),
                ooms=counters.count("oom"),
                cells_killed=counters.count("cell_killed"),
                cells_hung=counters.count("cell_hung"),
                hbw_fallbacks=counters.count("hbw_fallback"),
                samples_dropped=counters.count("samples_dropped"),
                samples_corrupted=counters.count("samples_corrupted"),
                aslr_recoveries=counters.count("aslr_recovery"),
                fom_quality=(
                    sum(qualities) / len(qualities) if qualities else None
                ),
            )
        )
    return table
