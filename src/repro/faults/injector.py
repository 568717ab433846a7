"""The seeded executor of a :class:`~repro.faults.plan.FaultPlan`.

Every decision the injector makes is a pure function of the plan seed
and the identity of the thing being degraded (application name, cell
key, attempt number, record index), never of wall-clock time or
process-global RNG state. That is what makes a fault-plan sweep
bit-reproducible across serial and parallel executions: worker
processes reconstruct the same injector from the same picklable plan
and reach the same verdicts.
"""

from __future__ import annotations

import zlib
from pathlib import Path

import numpy as np

from repro.errors import (
    FaultPlanError,
    InjectedFaultError,
    MigrationError,
    OutOfMemoryError,
    TransientMigrationError,
)
from repro.faults.plan import FaultPlan
from repro.retry import seeded_unit as _unit
from repro.runtime.callstack import RawCallStack
from repro.trace.columnar import EVENT_COLUMNS, KIND_SAMPLE, ColumnarTrace

#: Cell fates the scheduler distinguishes.
FATE_OK = "ok"
FATE_KILL = "kill"
FATE_HANG = "hang"

#: Per-window fates of the online daemon's sample stream.
WINDOW_OK = "ok"
WINDOW_DROP = "drop"
WINDOW_CORRUPT = "corrupt"
WINDOW_LATE = "late"
WINDOW_FATES: tuple[str, ...] = (WINDOW_DROP, WINDOW_CORRUPT, WINDOW_LATE)

#: Migration-attempt fates (mirrors the failure taxonomy buckets).
MIGRATION_OK = "ok"
MIGRATION_TRANSIENT = "transient"
MIGRATION_DETERMINISTIC = "deterministic"


class FaultInjector:
    """Applies one fault plan to the pipeline's moving parts."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        #: Per-injector memkind call counter (replay-local, so a fresh
        #: replay of the same timeline fails at the same allocations).
        self._memkind_calls = 0
        self._memkind_scope = ""

    # -- stage 1: PEBS sample loss / corruption ------------------------

    def degrade_trace(self, trace: ColumnarTrace) -> tuple[int, int]:
        """Drop/corrupt sample rows of an in-memory trace, in place.

        Returns ``(dropped, corrupted)``. Deterministic in the plan
        seed and the trace's application name + sample index (the
        sample's position in recording order), so the same profile
        degrades identically wherever it is re-derived.
        """
        plan = self.plan
        if not plan.degrades_profile:
            return 0, 0
        scope = zlib.crc32(trace.application.encode())
        rows = np.flatnonzero(trace.kinds == KIND_SAMPLE)
        draws = np.array(
            [_unit(plan.seed, "sample", scope, i) for i in range(rows.size)]
        )
        drop = draws < plan.sample_drop_rate
        corrupt = ~drop & (
            draws < plan.sample_drop_rate + plan.sample_corrupt_rate
        )
        if corrupt.any():
            # Perturb the address out of every mapped region; the
            # attribution stage must file it as unresolved.
            garbage = np.array(
                [
                    int(_unit(plan.seed, "corrupt", scope, i + 1) * 2**46)
                    for i in np.flatnonzero(corrupt).tolist()
                ],
                dtype=np.int64,
            )
            hit = rows[corrupt]
            addresses = trace.addresses.copy()
            addresses[hit] = (addresses[hit] ^ 0x5A5A_5A5A_5A5A) + garbage
            trace.addresses = addresses
        if drop.any():
            keep = np.ones(trace.n_events, dtype=bool)
            keep[rows[drop]] = False
            for name in EVENT_COLUMNS:
                setattr(trace, name, getattr(trace, name)[keep])
        return int(drop.sum()), int(corrupt.sum())

    # -- stage 4: ASLR drift -------------------------------------------

    def perturb_callstack(self, raw: RawCallStack) -> RawCallStack:
        """Shift every frame address by the plan's constant ASLR offset."""
        if self.plan.aslr_offset == 0:
            return raw
        return RawCallStack(
            addresses=tuple(a + self.plan.aslr_offset for a in raw.addresses)
        )

    # -- stage 4: memkind allocation failures --------------------------

    def arm_memkind(self, memkind, scope: str = "") -> None:
        """Install the injected-failure hook on a memkind allocator."""
        if self.plan.memkind_failure_rate <= 0:
            return
        self._memkind_scope = scope
        memkind.fail_hook = self._memkind_should_fail

    def _memkind_should_fail(self, size: int) -> bool:
        self._memkind_calls += 1
        return (
            _unit(
                self.plan.seed,
                "memkind",
                self._memkind_scope,
                self._memkind_calls,
            )
            < self.plan.memkind_failure_rate
        )

    # -- online serving loop: window degradation and migration faults --

    def window_fate(self, application: str, window_index: int) -> str:
        """``"ok"``, ``"drop"``, ``"corrupt"`` or ``"late"`` for one
        decision window's sample batch.

        Keyed on (seed, application, window index) only, so a resumed
        session reaches the same verdicts as the run it replaces —
        the resume-by-replay byte-identity guarantee depends on it.
        """
        plan = self.plan
        u = _unit(plan.seed, "window", application, window_index)
        if u < plan.window_drop_rate:
            return WINDOW_DROP
        if u < plan.window_drop_rate + plan.window_corrupt_rate:
            return WINDOW_CORRUPT
        if (
            u
            < plan.window_drop_rate
            + plan.window_corrupt_rate
            + plan.window_late_rate
        ):
            return WINDOW_LATE
        return WINDOW_OK

    def migration_fate(
        self,
        application: str,
        site: str,
        direction: str,
        window: int,
        attempt: int,
    ) -> str:
        """Fate of one migration attempt.

        A *deterministic* failure is decided per (site, direction,
        window) — every attempt of that move fails, modelling pinned
        pages, so the daemon must roll back. A *transient* failure is
        decided per attempt — a retry draws fresh, modelling bandwidth
        pressure, so the decorrelated-jitter retry loop can clear it.
        """
        plan = self.plan
        rate = plan.migration_failure_rate
        if rate <= 0:
            return MIGRATION_OK
        sticky = plan.migration_sticky_fraction
        base = _unit(
            plan.seed, "migration", application, site, direction, window
        )
        if base < rate * sticky:
            return MIGRATION_DETERMINISTIC
        u = _unit(
            plan.seed,
            "migration",
            application,
            site,
            direction,
            window,
            attempt,
        )
        if u < rate * (1.0 - sticky):
            return MIGRATION_TRANSIENT
        return MIGRATION_OK

    def check_migration(
        self,
        application: str,
        site: str,
        direction: str,
        window: int,
        attempt: int,
    ) -> None:
        """Raise the taxonomy-classified error for a failing attempt."""
        fate = self.migration_fate(application, site, direction, window,
                                   attempt)
        if fate == MIGRATION_TRANSIENT:
            raise TransientMigrationError(
                "injected transient migration failure",
                site=site,
                direction=direction,
                window=window,
            )
        if fate == MIGRATION_DETERMINISTIC:
            raise MigrationError(
                "injected deterministic migration failure",
                site=site,
                direction=direction,
                window=window,
            )

    # -- cluster fault domain: node churn and tenant kills -------------

    def node_fault_schedule(
        self, node_names: tuple[str, ...] | list[str], horizon: float
    ) -> list[tuple[float, str, str]]:
        """Seeded ``(time, kind, node)`` node-fault schedule for one
        cluster run, sorted by time then node name.

        Each node draws independently, keyed on (seed, node name)
        only — the schedule is identical however the run is split
        across kill/resume cycles, which the cluster checkpoint's
        byte-identity guarantee depends on. ``kind`` is the event-kind
        string (``"node_crash"`` / ``"node_drain"``); recovery events
        are derived by the simulator from ``node_recover_seconds``.
        """
        if horizon <= 0:
            raise FaultPlanError(
                f"node-fault horizon must be positive, got {horizon}"
            )
        plan = self.plan
        schedule: list[tuple[float, str, str]] = []
        for name in node_names:
            if _unit(plan.seed, "node-crash", name) < plan.node_crash_rate:
                schedule.append((
                    _unit(plan.seed, "node-crash-time", name) * horizon,
                    "node_crash",
                    name,
                ))
            if _unit(plan.seed, "node-drain", name) < plan.node_drain_rate:
                schedule.append((
                    _unit(plan.seed, "node-drain-time", name) * horizon,
                    "node_drain",
                    name,
                ))
        schedule.sort()
        return schedule

    def tenant_kill_fraction(self, job_id: int) -> float | None:
        """``None``, or the fraction of the tenant's expected isolated
        residence after which its kill fires.

        Keyed on (seed, job id) only, so a rescued tenant carries its
        death sentence to the new node and a resumed run reaches the
        same verdict. The fraction stays inside (0.1, 0.9) so the kill
        lands mid-residence rather than degenerating into an
        at-admission rejection or a no-op after completion.
        """
        plan = self.plan
        if _unit(plan.seed, "tenant-kill", job_id) >= plan.tenant_kill_rate:
            return None
        return 0.1 + 0.8 * _unit(plan.seed, "tenant-kill-at", job_id)

    # -- sweep scheduling: kills and hangs -----------------------------

    def cell_fate(self, application: str, cell_key: tuple, attempt: int) -> str:
        """``"ok"``, ``"kill"`` or ``"hang"`` for one cell attempt.

        The attempt number is part of the identity, so a killed first
        attempt can deterministically succeed on retry — the scenario
        the executor's retry/backoff machinery exists for.
        """
        u = _unit(self.plan.seed, "cell", application, cell_key, attempt)
        if u < self.plan.cell_kill_rate:
            return FATE_KILL
        if u < self.plan.cell_kill_rate + self.plan.cell_hang_rate:
            return FATE_HANG
        return FATE_OK

    def kill_error(self, application: str, cell_key: tuple, attempt: int):
        return InjectedFaultError(
            f"injected kill: {application} cell {cell_key} attempt {attempt}"
        )


def damage_trace_file(
    path: str | Path,
    plan: FaultPlan,
    protect_header: bool = True,
) -> int:
    """Damage a trace file on disk per the plan (truncation + bit flips).

    Returns the number of bytes the file lost to truncation. With
    ``protect_header`` (default) bit flips land after the first line,
    because a destroyed header makes a trace unrecoverable by design
    and the harness targets *record* damage for salvage studies.
    """
    path = Path(path)
    raw = bytearray(path.read_bytes())
    lost = 0
    if plan.trace_truncate_fraction is not None:
        keep = int(len(raw) * plan.trace_truncate_fraction)
        lost = len(raw) - keep
        raw = raw[:keep]
    if plan.trace_bitflips > 0 and raw:
        first_record = raw.find(b"\n") + 1 if protect_header else 0
        if first_record >= len(raw):
            raise FaultPlanError(
                f"{path}: nothing after the header to bit-flip"
            )
        rng = np.random.default_rng(
            np.random.SeedSequence([plan.seed, zlib.crc32(path.name.encode())])
        )
        for _ in range(plan.trace_bitflips):
            pos = int(rng.integers(first_record, len(raw)))
            bit = int(rng.integers(0, 8))
            raw[pos] ^= 1 << bit
    path.write_bytes(bytes(raw))
    return lost


def capacity_oom(
    message: str, requested: int, tier: str, remaining: int
) -> OutOfMemoryError:
    """Uniformly enriched OOM constructor used by the interposers."""
    return OutOfMemoryError(
        message, requested=requested, tier=tier, remaining=remaining
    )
