"""Disk-backed, content-addressed cache of sweep cell results.

A Figure-4 sweep re-run with unchanged inputs repeats every profiling
and replay stage only to land on the same :class:`ResultRow`s. The
cache keys each cell result by a SHA-256 content hash over everything
that determines it — the application model (full inventory, phases,
calibration), the machine configuration, the grid cell, the seed and
the code-relevant versions — so a warm re-run returns rows without
executing a single pipeline stage, while *any* change to an input
(one object's miss weight, a tier's bandwidth, the package version)
misses cleanly instead of serving stale data.
"""

from __future__ import annotations

from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING

from repro.apps.base import SimApplication
from repro.errors import ConfigError
from repro.ioutil import atomic_write_text, content_hash
from repro.machine.config import MachineConfig
from repro.parallel.journal import decode_record, encode_record
from repro.pipeline.experiment import GridCell
from repro.pipeline.results import ResultRow

if TYPE_CHECKING:
    from repro.faults.plan import FaultPlan

#: Bump when the cached payload layout or the scoring semantics of a
#: row change incompatibly; invalidates every prior entry.
CACHE_SCHEMA_VERSION = 2

#: Record type of a cache entry in the journal's checksummed format.
RECORD_ROW = "row"


def app_fingerprint(app: SimApplication) -> dict:
    """Everything about an application model that shapes its results."""
    return {
        "name": app.name,
        "geometry": asdict(app.geometry),
        "calibration": asdict(app.calibration),
        "scale": app.scale,
        "n_iterations": app.n_iterations,
        "stream_misses": app.stream_misses,
        "sampling_period": app.sampling_period,
        "stack_miss_fraction": app.stack_miss_fraction,
        "stack_phases": list(app.stack_phases),
        "alloc_count_multiplier": app.alloc_count_multiplier,
        "init_fraction": app.init_fraction,
        "phases": [asdict(p) for p in app.phases],
        "objects": [asdict(o) for o in app.objects],
    }


def cell_fingerprint(cell: GridCell) -> dict:
    return {
        "kind": cell.kind,
        "label": cell.label,
        "budget_bytes": cell.budget_bytes,
        "advisor_budget_bytes": cell.advisor_budget_bytes,
    }


def cell_cache_key(
    app: SimApplication,
    machine: MachineConfig,
    cell: GridCell,
    seed: int,
    fault_plan: "FaultPlan | None" = None,
    app_print: dict | None = None,
) -> str:
    """The content-addressed identity of one sweep cell.

    A fault plan changes what a cell computes, so it is part of the
    identity — but only when present, which keeps every pre-existing
    clean-run cache entry valid. ``app_print`` is
    :func:`app_fingerprint` of ``app`` when the caller already holds
    it: a sweep builds it once per app rather than once per cell.
    """
    from repro import __version__

    payload = {
        "schema": CACHE_SCHEMA_VERSION,
        "version": __version__,
        "app": app_fingerprint(app) if app_print is None else app_print,
        "machine": machine.to_dict(),
        "cell": cell_fingerprint(cell),
        "seed": seed,
    }
    if fault_plan is not None:
        payload["fault_plan"] = fault_plan.to_dict()
    return content_hash(payload)


def _decode_row(raw: str) -> ResultRow | None:
    """The row a cache entry holds; None if the entry is damaged."""
    record = decode_record(raw)
    if record is None or record[0] != RECORD_ROW:
        return None
    try:
        return ResultRow.from_dict(record[1]["row"])
    except (ValueError, KeyError, TypeError):
        return None


class ResultCache:
    """One-file-per-entry store under ``root`` (sharded by prefix).

    Entries are one checksummed record each, in the sweep journal's
    format (:func:`~repro.parallel.journal.encode_record`: canonical
    JSON plus a CRC-32), so a bit-rotted row is detected rather than
    served. Sharding into 256 prefix directories keeps any single
    directory listing fast even for sweeps with many thousands of
    cells.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError) as exc:
            raise ConfigError(
                f"cache dir {self.root} is not a directory"
            ) from exc
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.quarantined = 0

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> ResultRow | None:
        """The cached row for ``key``, or None.

        A present-but-damaged entry (truncated write from a killed
        process, a CRC mismatch from bit rot, foreign junk) is
        *quarantined*: renamed to ``<key>.corrupt`` beside the live
        entries and reported as a miss, so the cell re-executes and
        its fresh row can be stored under the original name — one bad
        entry never wedges the cell that owns it, and the evidence is
        preserved for inspection.
        """
        path = self._path(key)
        try:
            raw = path.read_text()
        except OSError:
            # Absent (or unreadable) is an ordinary miss.
            self.misses += 1
            return None
        row = _decode_row(raw)
        if row is None:
            try:
                path.replace(path.with_suffix(".corrupt"))
            except OSError:
                pass
            self.quarantined += 1
            self.misses += 1
            return None
        self.hits += 1
        return row

    def put(self, key: str, row: ResultRow) -> None:
        """Store atomically and durably (write-fsync-rename via
        :func:`repro.ioutil.atomic_write_text`) so a crashed or
        concurrent writer never leaves a half-written entry."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = encode_record(
            RECORD_ROW, {"schema": CACHE_SCHEMA_VERSION, "row": row.to_dict()}
        )
        atomic_write_text(path, payload + "\n")
        self.stores += 1

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.json"))

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
