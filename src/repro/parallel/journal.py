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

The same file format carries :class:`DecisionLog`, the resume log of
the two deterministic runs (the online daemon and the cluster
simulator): one record per output line, verified when a resumed run
re-executes from the start.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import CheckpointError, JournalError
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
        owner: str = "sweep",
    ) -> tuple["SweepJournal", JournalReplay]:
        """Reopen an existing journal and return its replay state.

        A missing journal degrades to a cold start (empty replay); a
        journal whose manifest differs from ``manifest`` in any field
        was written by a *different* run (``owner`` names the kind of
        run in the error) and raises
        :class:`~repro.errors.JournalError` before the file is
        touched. A damaged tail is truncated back to the last intact
        record so appends land on a clean boundary.
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
        if _canonical(replay.manifest) != _canonical(manifest):
            raise JournalError(
                f"{path}: journal belongs to a different {owner} "
                f"(journal manifest {replay.manifest!r}, this {owner} "
                f"{manifest!r}); refusing to mix results — use a fresh "
                "directory"
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

    def buffer(self, record_type: str, payload: dict) -> None:
        """Write one record without a barrier: the next fsynced append
        commits it too (group commit), and a crash before then can
        only tear the file's tail."""
        self._fh.write(encode_record(record_type, payload) + "\n")
        self.records_written += 1

    def _sync(self) -> None:
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def append(self, record_type: str, payload: dict) -> None:
        """Append one record, flushed and fsynced before returning."""
        self.buffer(record_type, payload)
        self._sync()

    def append_intents(self, payloads: list[dict]) -> None:
        """Append a batch of intents with one fsync for the lot —
        intents are advisory (they name what *would* run), so one
        barrier per scheduling wave is enough."""
        if not payloads:
            return
        for payload in payloads:
            self.buffer(RECORD_INTENT, payload)
        self._sync()

    def record_outcome(self, payload: dict) -> None:
        self.append(RECORD_OUTCOME, payload)

    def record_end(self, summary: dict) -> None:
        self.append(RECORD_END, summary)

    def close(self) -> None:
        if not self._fh.closed:
            self._sync()
            self._fh.close()

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class DecisionLog:
    """Resume by deterministic replay: a run's output lines, durable as
    they are written and verified when the run is re-executed.

    The online daemon (``online.log``) and the cluster simulator
    (``cluster.log``) are pure functions of their session identity, so
    neither snapshots its state. The log is a :class:`SweepJournal`
    file: a manifest holding the session key, then one outcome record
    per output line, keyed by its index. A resumed run re-executes
    from the start and hands every line to :meth:`settle`: a line the
    log already holds must equal the logged one
    (:class:`~repro.errors.CheckpointError` names the first that
    differs), and the lines past the logged prefix are appended.
    """

    def __init__(
        self, journal: SweepJournal, logged: list[dict], noun: str
    ) -> None:
        self._journal = journal
        #: The records the log held when it was opened, in order.
        self.logged = logged
        #: Records settled so far by this run.
        self.settled = 0
        self._noun = noun

    @classmethod
    def open(
        cls,
        directory: str | Path,
        filename: str,
        session: str,
        *,
        resume: bool,
        owner: str,
        noun: str,
        fields: tuple[tuple[str, type], ...] = (("line", str),),
    ) -> "DecisionLog":
        """Start a fresh log, or with ``resume`` reopen one and read the
        records it holds.

        A missing log resumes as a fresh run; a log headed by another
        session (``owner`` names the kind) is refused untouched; a torn
        tail is truncated. Every logged record must carry ``fields``
        with the given types. ``noun`` names one record in errors.
        """
        manifest = {"session_key": session}
        try:
            if resume:
                journal, replay = SweepJournal.resume(
                    directory, manifest, filename, owner
                )
            else:
                journal = SweepJournal.create(directory, manifest, filename)
                replay = JournalReplay()
        except JournalError as exc:
            raise CheckpointError(str(exc)) from exc
        logged: list[dict] = []
        while (record := replay.settled.get(str(len(logged)))) is not None:
            if not all(isinstance(record.get(f), t) for f, t in fields):
                journal.close()
                raise CheckpointError(
                    f"{journal.path}: malformed record for {noun} "
                    f"{len(logged)}"
                )
            logged.append(record)
        return cls(journal, logged, noun)

    @property
    def replaying(self) -> bool:
        """True until the run has settled every logged record."""
        return self.settled < len(self.logged)

    def settle(self, records: list[dict]) -> None:
        """Settle the run's next records in order: check each one the
        log holds against its ``line``, and append the rest with one
        fsync for the lot (group commit)."""
        fresh: list[dict] = []
        for record in records:
            index = self.settled
            if index < len(self.logged):
                logged = self.logged[index]["line"]
                if record["line"] != logged:
                    raise CheckpointError(
                        f"{self._journal.path}: {self._noun} {index} "
                        f"does not replay (logged {logged!r}, "
                        f"re-executed {record['line']!r})"
                    )
            else:
                fresh.append({**record, "key": str(index)})
            self.settled += 1
        if fresh:
            for payload in fresh[:-1]:
                self._journal.buffer(RECORD_OUTCOME, payload)
            # The last record's fsync commits the whole batch.
            self._journal.record_outcome(fresh[-1])

    def finish(self) -> None:
        """Refuse a log holding more records than the run produced."""
        if self.replaying:
            raise CheckpointError(
                f"{self._journal.path}: {self._noun} {self.settled} "
                f"does not replay (logged "
                f"{self.logged[self.settled]['line']!r}, but the run "
                f"produced only {self.settled} records)"
            )

    def close(self) -> None:
        self._journal.close()
