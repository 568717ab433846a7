"""Crash-consistent write-ahead journal for sweep execution.

A multi-hour sweep must survive the death of the *parent* process —
SIGKILL, OOM, preemption — not just in-band cell faults. The journal
makes the sweep's progress durable: before any cell is dispatched its
*intent* is appended, and the moment a cell settles (row, failure or
skip) its full :class:`~repro.parallel.sweep.CellOutcome` is appended.
A relaunched sweep (``--resume``) replays the settled outcomes and
executes only the cells the journal does not answer.

Crash consistency rests on three properties:

* **append-only JSONL** — a crash can only damage the tail, never
  rewrite history;
* **fsynced appends** — every outcome record is flushed and fsynced
  before the sweep proceeds, and the journal's directory is fsynced
  at creation so the file's very existence is durable (see
  :func:`repro.ioutil.fsync_dir`);
* **per-record checksums** — every line carries a CRC-32 over its
  canonical encoding, so a torn or bit-rotted tail is *detected*
  rather than replayed; reading stops at the first damaged record and
  resuming truncates the file back to the last intact byte before
  appending.

Records are keyed by the same content hash the result cache uses
(:func:`repro.parallel.result_cache.cell_cache_key`), so a journal can
only ever answer the exact (app model, machine, cell, seed, fault
plan, code version) it was written for; the manifest record pins the
whole sweep's identity and a resume against a different sweep raises
:class:`~repro.errors.JournalError` instead of mixing results.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import JournalError
from repro.ioutil import fsync_dir

#: Bump when the record layout changes incompatibly.
JOURNAL_SCHEMA_VERSION = 1

#: File name of the journal inside its directory.
JOURNAL_FILENAME = "sweep.journal"

#: Record types, in the order a healthy journal emits them.
RECORD_MANIFEST = "manifest"
RECORD_RESUME = "resume"
RECORD_INTENT = "intent"
RECORD_OUTCOME = "outcome"
RECORD_END = "end"


def _canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def encode_record(record_type: str, payload: dict) -> str:
    """One journal line: type + payload + CRC-32 over both."""
    body = _canonical(
        {"v": JOURNAL_SCHEMA_VERSION, "type": record_type, "payload": payload}
    )
    crc = zlib.crc32(body.encode()) & 0xFFFFFFFF
    return _canonical(
        {
            "v": JOURNAL_SCHEMA_VERSION,
            "type": record_type,
            "payload": payload,
            "crc": crc,
        }
    )


def decode_record(line: str) -> tuple[str, dict] | None:
    """Parse one journal line; None if damaged (bad JSON or bad CRC)."""
    try:
        record = json.loads(line)
    except ValueError:
        return None
    if not isinstance(record, dict):
        return None
    crc = record.get("crc")
    record_type = record.get("type")
    payload = record.get("payload")
    if not isinstance(record_type, str) or not isinstance(payload, dict):
        return None
    body = _canonical(
        {
            "v": record.get("v", JOURNAL_SCHEMA_VERSION),
            "type": record_type,
            "payload": payload,
        }
    )
    if crc != zlib.crc32(body.encode()) & 0xFFFFFFFF:
        return None
    return record_type, payload


@dataclass
class JournalReplay:
    """Everything a journal answers about a prior (possibly crashed) run."""

    manifest: dict | None = None
    #: Settled outcomes, keyed by the cell's content-hash key.
    settled: dict[str, dict] = field(default_factory=dict)
    #: Intents recorded, keyed the same way (settled or not).
    intents: dict[str, dict] = field(default_factory=dict)
    #: True when the prior run wrote its end record (completed cleanly).
    completed: bool = False
    #: Records lost to a damaged tail (0 on a clean journal).
    damaged_records: int = 0
    #: Byte offset of the last intact record boundary; a resumer
    #: truncates the file here before appending.
    good_bytes: int = 0

    @property
    def inflight(self) -> list[str]:
        """Keys of cells that were dispatched but never settled —
        the cells a crash interrupted mid-execution."""
        return [k for k in self.intents if k not in self.settled]


def read_journal(path: str | Path) -> JournalReplay:
    """Replay a journal file, stopping at the first damaged record.

    Damage past the first bad byte is counted, not parsed: an
    append-only writer can only tear the tail, so everything after a
    bad record is untrusted by construction.
    """
    path = Path(path)
    replay = JournalReplay()
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise JournalError(f"cannot read journal {path}: {exc}") from exc
    offset = 0
    while offset < len(raw):
        newline = raw.find(b"\n", offset)
        if newline == -1:
            # An unterminated tail is a torn write even if it happens
            # to parse — never trust it.
            replay.damaged_records = 1
            break
        chunk = raw[offset:newline]
        if chunk:
            decoded = decode_record(chunk.decode("utf-8", errors="replace"))
            if decoded is None:
                # Everything past the first bad record is untrusted:
                # an append-only writer can only damage a suffix.
                tail = raw[offset:].split(b"\n")
                replay.damaged_records = sum(1 for c in tail if c)
                break
            record_type, payload = decoded
            if record_type == RECORD_MANIFEST:
                replay.manifest = payload
            elif record_type == RECORD_INTENT:
                key = payload.get("key")
                if isinstance(key, str):
                    replay.intents[key] = payload
            elif record_type == RECORD_OUTCOME:
                key = payload.get("key")
                if isinstance(key, str):
                    replay.settled[key] = payload
            elif record_type == RECORD_END:
                replay.completed = True
        offset = newline + 1
        replay.good_bytes = offset
    return replay


class SweepJournal:
    """Append-only writer half of the journal protocol."""

    def __init__(self, path: Path, fh) -> None:
        self.path = path
        self._fh = fh
        self.records_written = 0

    # -- opening --------------------------------------------------------

    @classmethod
    def create(
        cls,
        directory: str | Path,
        manifest: dict,
        filename: str = JOURNAL_FILENAME,
    ) -> "SweepJournal":
        """Start a fresh journal (truncating any prior one).

        ``filename`` names the file inside ``directory``; the online
        daemon keeps its decision log through this same writer.
        """
        directory = Path(directory)
        try:
            directory.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError) as exc:
            raise JournalError(
                f"journal dir {directory} is not a directory"
            ) from exc
        path = directory / filename
        fh = open(path, "w", encoding="utf-8")
        journal = cls(path, fh)
        journal.append(RECORD_MANIFEST, manifest)
        # The file's existence must survive a crash too.
        fsync_dir(directory)
        return journal

    @classmethod
    def resume(
        cls,
        directory: str | Path,
        manifest: dict,
        filename: str = JOURNAL_FILENAME,
    ) -> tuple["SweepJournal", JournalReplay]:
        """Reopen an existing journal and return its replay state.

        A missing journal degrades to a cold start (empty replay); a
        journal written by a *different* sweep raises
        :class:`~repro.errors.JournalError`. A damaged tail is
        truncated back to the last intact record so appends land on a
        clean boundary.
        """
        directory = Path(directory)
        path = directory / filename
        if not path.exists():
            return cls.create(directory, manifest, filename), JournalReplay()
        replay = read_journal(path)
        if replay.manifest is None:
            raise JournalError(
                f"{path}: no intact manifest record; not a sweep journal "
                "(or its head was destroyed)"
            )
        theirs = replay.manifest.get("sweep_key")
        ours = manifest.get("sweep_key")
        if theirs != ours:
            raise JournalError(
                f"{path}: journal belongs to a different sweep "
                f"(journal sweep_key {theirs!r}, this sweep {ours!r}); "
                "refusing to mix results — use a fresh --journal-dir"
            )
        if replay.good_bytes < path.stat().st_size:
            with open(path, "rb+") as repair:
                repair.truncate(replay.good_bytes)
                repair.flush()
                os.fsync(repair.fileno())
        fh = open(path, "a", encoding="utf-8")
        journal = cls(path, fh)
        journal.append(
            RECORD_RESUME,
            {
                "replayed": len(replay.settled),
                "inflight": len(replay.inflight),
                "damaged_records": replay.damaged_records,
            },
        )
        return journal, replay

    # -- appending ------------------------------------------------------

    def append(self, record_type: str, payload: dict) -> None:
        """Append one record, flushed and fsynced before returning."""
        self._fh.write(encode_record(record_type, payload) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self.records_written += 1

    def append_intents(self, payloads: list[dict]) -> None:
        """Append a batch of intents with one fsync for the lot —
        intents are advisory (they name what *would* run), so one
        barrier per scheduling wave is enough."""
        if not payloads:
            return
        for payload in payloads:
            self._fh.write(encode_record(RECORD_INTENT, payload) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self.records_written += len(payloads)

    def record_outcome(self, payload: dict) -> None:
        self.append(RECORD_OUTCOME, payload)

    def record_end(self, summary: dict) -> None:
        self.append(RECORD_END, summary)

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._fh.close()

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
