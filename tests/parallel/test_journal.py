"""Sweep journal: record codec, damage detection, resume semantics."""

import json

import pytest

from repro.errors import JournalError
from repro.parallel.journal import (
    JOURNAL_FILENAME,
    RECORD_END,
    RECORD_INTENT,
    RECORD_MANIFEST,
    RECORD_OUTCOME,
    RECORD_RESUME,
    SweepJournal,
    decode_record,
    encode_record,
    read_journal,
)

MANIFEST = {"sweep_key": "abc", "cells": 2}


class TestRecordCodec:
    def test_round_trip(self):
        line = encode_record(RECORD_OUTCOME, {"key": "k", "row": None})
        assert decode_record(line) == (RECORD_OUTCOME, {"key": "k", "row": None})

    def test_crc_detects_payload_tampering(self):
        line = encode_record(RECORD_OUTCOME, {"key": "k", "fom": 1.5})
        tampered = line.replace("1.5", "2.5")
        assert json.loads(tampered)  # still valid JSON...
        assert decode_record(tampered) is None  # ...but the CRC says no

    def test_garbage_lines_rejected(self):
        assert decode_record("not json at all") is None
        assert decode_record("[1, 2, 3]") is None
        assert decode_record('{"type": "outcome"}') is None


class TestReadJournal:
    def write(self, path, lines):
        path.write_text("".join(line + "\n" for line in lines))

    def test_clean_journal(self, tmp_path):
        path = tmp_path / JOURNAL_FILENAME
        self.write(
            path,
            [
                encode_record(RECORD_MANIFEST, MANIFEST),
                encode_record(RECORD_INTENT, {"key": "a"}),
                encode_record(RECORD_INTENT, {"key": "b"}),
                encode_record(RECORD_OUTCOME, {"key": "a", "row": None}),
                encode_record(RECORD_END, {"cells": 2}),
            ],
        )
        replay = read_journal(path)
        assert replay.manifest == MANIFEST
        assert set(replay.intents) == {"a", "b"}
        assert set(replay.settled) == {"a"}
        assert replay.inflight == ["b"]
        assert replay.completed
        assert replay.damaged_records == 0
        assert replay.good_bytes == path.stat().st_size

    def test_torn_tail_is_detected_and_bounded(self, tmp_path):
        """A crash mid-append damages only the tail; everything before
        the damage replays intact."""
        path = tmp_path / JOURNAL_FILENAME
        good = [
            encode_record(RECORD_MANIFEST, MANIFEST),
            encode_record(RECORD_OUTCOME, {"key": "a", "row": None}),
        ]
        self.write(path, good)
        clean_size = path.stat().st_size
        # Simulate a torn write: half a record, no trailing newline.
        with open(path, "a") as fh:
            fh.write(encode_record(RECORD_OUTCOME, {"key": "b"})[:20])
        replay = read_journal(path)
        assert set(replay.settled) == {"a"}
        assert replay.damaged_records == 1
        assert replay.good_bytes == clean_size

    def test_unterminated_tail_untrusted_even_if_parseable(self, tmp_path):
        """A final line without a newline is torn by definition — the
        missing terminator means the append never completed."""
        path = tmp_path / JOURNAL_FILENAME
        self.write(path, [encode_record(RECORD_MANIFEST, MANIFEST)])
        with open(path, "a") as fh:
            fh.write(encode_record(RECORD_OUTCOME, {"key": "a", "row": None}))
        replay = read_journal(path)
        assert replay.settled == {}
        assert replay.damaged_records == 1

    def test_damage_stops_replay_of_later_records(self, tmp_path):
        """Records after the first bad one are untrusted even if they
        checksum — an append-only file cannot have a healthy suffix
        after a damaged middle unless something else wrote it."""
        path = tmp_path / JOURNAL_FILENAME
        self.write(
            path,
            [
                encode_record(RECORD_MANIFEST, MANIFEST),
                "garbage line",
                encode_record(RECORD_OUTCOME, {"key": "a", "row": None}),
            ],
        )
        replay = read_journal(path)
        assert replay.settled == {}
        assert replay.damaged_records == 2

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(JournalError):
            read_journal(tmp_path / "nope.journal")


class TestSweepJournal:
    def test_create_then_read(self, tmp_path):
        with SweepJournal.create(tmp_path, MANIFEST) as journal:
            journal.append_intents([{"key": "a"}, {"key": "b"}])
            journal.record_outcome({"key": "a", "row": None})
            journal.record_end({"cells": 2})
        replay = read_journal(tmp_path / JOURNAL_FILENAME)
        assert replay.manifest == MANIFEST
        assert replay.inflight == ["b"]
        assert replay.completed

    def test_resume_missing_journal_is_cold_start(self, tmp_path):
        journal, replay = SweepJournal.resume(tmp_path / "fresh", MANIFEST)
        journal.close()
        assert replay.settled == {}
        assert replay.manifest is None

    def test_resume_replays_and_appends_resume_record(self, tmp_path):
        with SweepJournal.create(tmp_path, MANIFEST) as journal:
            journal.record_outcome({"key": "a", "row": None})
        journal, replay = SweepJournal.resume(tmp_path, MANIFEST)
        journal.close()
        assert set(replay.settled) == {"a"}
        again = read_journal(tmp_path / JOURNAL_FILENAME)
        # The reopened journal logged the resume event itself.
        raw = (tmp_path / JOURNAL_FILENAME).read_text().splitlines()
        types = [decode_record(line)[0] for line in raw]
        assert types == [RECORD_MANIFEST, RECORD_OUTCOME, RECORD_RESUME]
        assert set(again.settled) == {"a"}

    def test_resume_truncates_damaged_tail(self, tmp_path):
        with SweepJournal.create(tmp_path, MANIFEST) as journal:
            journal.record_outcome({"key": "a", "row": None})
        path = tmp_path / JOURNAL_FILENAME
        with open(path, "a") as fh:
            fh.write('{"torn": ')
        journal, replay = SweepJournal.resume(tmp_path, MANIFEST)
        journal.record_outcome({"key": "b", "row": None})
        journal.close()
        # After repair + append, the whole file parses cleanly again.
        final = read_journal(path)
        assert final.damaged_records == 0
        assert set(final.settled) == {"a", "b"}

    def test_resume_refuses_foreign_sweep(self, tmp_path):
        with SweepJournal.create(tmp_path, MANIFEST):
            pass
        with pytest.raises(JournalError, match="different sweep"):
            SweepJournal.resume(tmp_path, {"sweep_key": "other"})

    def test_resume_refuses_any_foreign_manifest(self, tmp_path):
        """Manifests are compared whole, not by ``sweep_key`` alone:
        two sessions that carry no sweep key still differ, and the
        refused journal is left byte-identical."""
        with SweepJournal.create(tmp_path, {"session_key": "aaa"}) as journal:
            journal.record_outcome({"key": "0", "line": "x"})
        path = tmp_path / JOURNAL_FILENAME
        before = path.read_bytes()
        with pytest.raises(JournalError, match="different sweep"):
            SweepJournal.resume(tmp_path, {"session_key": "bbb"})
        assert path.read_bytes() == before

    def test_resume_refuses_headless_file(self, tmp_path):
        (tmp_path / JOURNAL_FILENAME).write_text("junk\n")
        with pytest.raises(JournalError, match="manifest"):
            SweepJournal.resume(tmp_path, MANIFEST)

    def test_journal_dir_must_be_a_directory(self, tmp_path):
        occupied = tmp_path / "occupied"
        occupied.write_text("file, not dir")
        with pytest.raises(JournalError, match="not a directory"):
            SweepJournal.create(occupied / "sub", MANIFEST)
