"""Trace-file container with JSONL round-trip.

The real framework persists Paraver trace-files on disk between stage
1 (Extrae) and stage 2 (Paramedir); the simulated trace does the same
through JSON-lines so each stage can run in a separate process if
desired.

Robustness: every record line carries a CRC-32 over its canonical
payload and the header records how many records follow, so
:meth:`TraceFile.load` can tell a clean trace from a damaged one.
Strict loads (the default) raise :class:`~repro.errors.TraceError` on
the first damaged line; ``salvage=True`` recovers every intact record
and reports what was lost in :attr:`TraceFile.salvage`. Writes are
atomic (temp file + rename) so a crashed writer never leaves a
half-written trace behind the next stage's back.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Union

from repro.errors import TraceError
from repro.ioutil import atomic_writer
from repro.trace.events import (
    AllocEvent,
    FreeEvent,
    PhaseEvent,
    SampleEvent,
    StaticVarRecord,
)

TraceEvent = Union[AllocEvent, FreeEvent, SampleEvent, PhaseEvent]

_EVENT_TYPES = {
    "alloc": AllocEvent,
    "free": FreeEvent,
    "sample": SampleEvent,
    "phase": PhaseEvent,
}


def _checksummed_line(record: dict) -> str:
    """One JSONL line with a ``crc`` field over the canonical payload."""
    canonical = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return json.dumps(
        {**record, "crc": zlib.crc32(canonical.encode())},
        sort_keys=True,
        separators=(",", ":"),
    )


def _verify_crc(data: dict) -> bool:
    """True iff ``data`` has no crc (legacy record) or a matching one."""
    crc = data.pop("crc", None)
    if crc is None:
        return True
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return zlib.crc32(canonical.encode()) == crc


@dataclass(frozen=True, slots=True)
class SalvageReport:
    """What a ``salvage=True`` load recovered and what it lost."""

    #: Records recovered intact (statics + events).
    recovered_records: int = 0
    #: Lines that failed to parse or failed their checksum.
    damaged_lines: int = 0
    #: Records lost: damaged lines plus records the header promised
    #: but the file no longer contains (truncation).
    lost_records: int = 0
    #: ``path:lineno: reason`` strings, one per damaged line.
    details: tuple[str, ...] = ()

    @property
    def clean(self) -> bool:
        return self.lost_records == 0 and self.damaged_lines == 0


@dataclass
class TraceFile:
    """An ordered collection of trace events plus run metadata."""

    application: str = ""
    ranks: int = 1
    sampling_period: int = 1
    events: list[TraceEvent] = field(default_factory=list)
    statics: list[StaticVarRecord] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)
    #: Populated by ``load(salvage=True)``; None on clean/strict loads.
    salvage: SalvageReport | None = field(
        default=None, compare=False, repr=False
    )
    def append(self, event: TraceEvent) -> None:
        self.events.append(event)

    def extend(self, events: list[TraceEvent]) -> None:
        self.events.extend(events)

    @property
    def alloc_events(self) -> list[AllocEvent]:
        return [e for e in self.events if isinstance(e, AllocEvent)]

    @property
    def free_events(self) -> list[FreeEvent]:
        return [e for e in self.events if isinstance(e, FreeEvent)]

    @property
    def sample_events(self) -> list[SampleEvent]:
        return [e for e in self.events if isinstance(e, SampleEvent)]

    @property
    def phase_events(self) -> list[PhaseEvent]:
        return [e for e in self.events if isinstance(e, PhaseEvent)]

    @property
    def duration(self) -> float:
        if not self.events:
            return 0.0
        return max(e.time for e in self.events)

    # -- persistence ---------------------------------------------------------

    def iter_jsonl_lines(self) -> Iterator[str]:
        """Checksummed JSONL lines (header + records), one at a time."""
        header = {
            "type": "header",
            "application": self.application,
            "ranks": self.ranks,
            "sampling_period": self.sampling_period,
            "metadata": self.metadata,
            "n_records": len(self.statics) + len(self.events),
        }
        yield _checksummed_line(header)
        for static in self.statics:
            yield _checksummed_line(static.to_dict())
        for event in self.events:
            yield _checksummed_line(event.to_dict())

    def to_jsonl(self) -> str:
        """The full checksummed JSONL payload (header + records)."""
        return "\n".join(self.iter_jsonl_lines()) + "\n"

    def save(self, path: str | Path) -> None:
        """Write as JSON lines: a checksummed header record, then one
        checksummed event per line — atomically (temp file + rename).

        Lines are streamed to the temporary file as they are encoded;
        the full multi-hundred-MB payload of a large trace is never
        materialised as one string.
        """
        with atomic_writer(path, "w") as fh:
            for line in self.iter_jsonl_lines():
                fh.write(line)
                fh.write("\n")

    @classmethod
    def load(cls, path: str | Path, salvage: bool = False) -> "TraceFile":
        """Read a trace back.

        Strict mode (default) raises :class:`TraceError` on the first
        malformed, checksum-failing or unknown record. ``salvage=True``
        recovers every intact record, skips damaged lines, and attaches
        a :class:`SalvageReport` (damage counts + per-line reasons) as
        :attr:`salvage`; only a missing/damaged header is fatal, since
        nothing can be attributed without one.
        """
        path = Path(path)
        trace: TraceFile | None = None
        expected_records: int | None = None
        recovered = 0
        damage: list[str] = []

        def damaged(lineno: int, reason: str) -> None:
            message = f"{path}:{lineno}: {reason}"
            if not salvage:
                raise TraceError(message)
            damage.append(message)

        # Binary split: a bit-flipped line may not even decode as
        # UTF-8, and one bad line must not poison its neighbours.
        with path.open("rb") as fh:
            for lineno, raw in enumerate(fh, start=1):
                try:
                    line = raw.decode().strip()
                except UnicodeDecodeError as exc:
                    damaged(lineno, f"undecodable bytes: {exc}")
                    continue
                if not line:
                    continue
                try:
                    data = json.loads(line)
                except json.JSONDecodeError as exc:
                    damaged(lineno, f"bad JSON: {exc}")
                    continue
                if not isinstance(data, dict):
                    damaged(lineno, "record is not an object")
                    continue
                if not _verify_crc(data):
                    damaged(lineno, "checksum mismatch (corrupt record)")
                    continue
                kind = data.get("type")
                if kind == "header":
                    trace = cls(
                        application=data.get("application", ""),
                        ranks=data.get("ranks", 1),
                        sampling_period=data.get("sampling_period", 1),
                        metadata=data.get("metadata", {}),
                    )
                    expected_records = data.get("n_records")
                    continue
                if trace is None:
                    raise TraceError(f"{path}: first record must be the header")
                try:
                    if kind == "static":
                        trace.statics.append(StaticVarRecord.from_dict(data))
                    elif kind in _EVENT_TYPES:
                        trace.events.append(_EVENT_TYPES[kind].from_dict(data))
                    else:
                        damaged(lineno, f"unknown event {kind!r}")
                        continue
                except (KeyError, TypeError, ValueError) as exc:
                    damaged(lineno, f"malformed {kind} record: {exc}")
                    continue
                recovered += 1
        if trace is None:
            raise TraceError(
                f"{path}: empty trace file"
                if not damage
                else f"{path}: header unrecoverable ({damage[0]})"
            )
        if salvage:
            lost = len(damage)
            if expected_records is not None:
                lost = max(lost, expected_records - recovered)
            trace.salvage = SalvageReport(
                recovered_records=recovered,
                damaged_lines=len(damage),
                lost_records=lost,
                details=tuple(damage),
            )
        elif expected_records is not None and recovered != expected_records:
            raise TraceError(
                f"{path}: header promises {expected_records} records, "
                f"found {recovered} (truncated trace?)"
            )
        return trace
