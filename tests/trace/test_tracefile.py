"""TraceFile container and JSONL persistence."""

import pytest

from repro.errors import TraceError
from repro.runtime.callstack import CallStack, Frame
from repro.trace.events import (
    AllocEvent,
    FreeEvent,
    PhaseEvent,
    SampleEvent,
    StaticVarRecord,
)
from repro.trace.tracefile import TraceFile


def _trace():
    cs = CallStack(frames=(Frame("app", "f", "app.c", 3),))
    trace = TraceFile(application="demo", ranks=2, sampling_period=7)
    trace.append(AllocEvent(time=0.1, rank=0, address=0x10, size=64,
                            callstack=cs))
    trace.append(SampleEvent(time=0.2, rank=0, address=0x20))
    trace.append(PhaseEvent(time=0.15, rank=0, function="loop"))
    trace.append(FreeEvent(time=0.3, rank=0, address=0x10))
    trace.statics.append(
        StaticVarRecord(name="tbl", rank=0, address=0x900, size=32)
    )
    trace.metadata["stack_region"] = [0x7000, 0x1000]
    return trace


class TestContainer:
    def test_typed_views(self):
        trace = _trace()
        assert len(trace.alloc_events) == 1
        assert len(trace.free_events) == 1
        assert len(trace.sample_events) == 1
        assert len(trace.phase_events) == 1

    def test_duration(self):
        assert _trace().duration == pytest.approx(0.3)

    def test_empty_duration(self):
        assert TraceFile().duration == 0.0

    def test_extend(self):
        trace = TraceFile()
        trace.extend([SampleEvent(0.0, 0, 1), SampleEvent(0.1, 0, 2)])
        assert len(trace.events) == 2


class TestPersistence:
    def test_round_trip(self, tmp_path):
        trace = _trace()
        path = tmp_path / "run.trace"
        trace.save(path)
        clone = TraceFile.load(path)
        assert clone.application == "demo"
        assert clone.ranks == 2
        assert clone.sampling_period == 7
        assert clone.metadata == {"stack_region": [0x7000, 0x1000]}
        assert clone.statics == trace.statics
        assert clone.events == trace.events

    def test_streamed_save_equals_to_jsonl(self, tmp_path):
        """``save`` streams lines; the bytes on disk must be exactly
        the materialised payload."""
        trace = _trace()
        path = tmp_path / "run.trace"
        trace.save(path)
        assert path.read_text() == trace.to_jsonl()

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.trace"
        path.write_text("")
        with pytest.raises(TraceError):
            TraceFile.load(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text('{"type": "sample", "time": 0, "rank": 0, "address": 1}\n')
        with pytest.raises(TraceError):
            TraceFile.load(path)

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text("not json\n")
        with pytest.raises(TraceError):
            TraceFile.load(path)

    def test_unknown_event_rejected(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text(
            '{"type": "header", "application": "x"}\n{"type": "mystery"}\n'
        )
        with pytest.raises(TraceError):
            TraceFile.load(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gaps.trace"
        path.write_text('{"type": "header", "application": "x"}\n\n\n')
        assert TraceFile.load(path).application == "x"

    def test_legacy_records_without_crc_load(self, tmp_path):
        # Traces written before checksumming carry no crc/n_records;
        # they must keep loading strictly.
        path = tmp_path / "legacy.trace"
        path.write_text(
            '{"type": "header", "application": "x"}\n'
            '{"type": "sample", "time": 0.5, "rank": 0, "address": 64}\n'
        )
        loaded = TraceFile.load(path)
        assert loaded.application == "x"
        assert len(loaded.sample_events) == 1


def _saved(tmp_path, n=40):
    trace = TraceFile(application="demo", ranks=1, sampling_period=3)
    for i in range(n):
        trace.append(SampleEvent(time=i * 0.01, rank=0, address=0x1000 + i))
    path = tmp_path / "run.trace"
    trace.save(path)
    return trace, path


class TestSalvage:
    def test_clean_load_reports_clean(self, tmp_path):
        _, path = _saved(tmp_path)
        clone = TraceFile.load(path, salvage=True)
        assert clone.salvage is not None
        assert clone.salvage.clean
        assert clone.salvage.recovered_records == 40

    def test_strict_load_attaches_no_report(self, tmp_path):
        _, path = _saved(tmp_path)
        assert TraceFile.load(path).salvage is None

    def test_truncated_strict_raises(self, tmp_path):
        _, path = _saved(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[: int(len(raw) * 0.6)])
        with pytest.raises(TraceError):
            TraceFile.load(path)

    def test_truncated_salvage_recovers_intact_records(self, tmp_path):
        trace, path = _saved(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[: int(len(raw) * 0.6)])
        clone = TraceFile.load(path, salvage=True)
        report = clone.salvage
        assert report is not None and not report.clean
        assert report.recovered_records + report.lost_records == 40
        assert 0 < report.recovered_records < 40
        # Every recovered record is a faithful prefix of the original.
        assert clone.events == trace.events[: report.recovered_records]

    def test_undecodable_bytes_do_not_poison_neighbours(self, tmp_path):
        """A bit-flip can leave a line that is not even UTF-8; it must
        surface as TraceError strictly, one damaged line in salvage."""
        _, path = _saved(tmp_path)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[5] = b'{"type": "sample", "\xed\xa0\x80": 1}\n'
        path.write_bytes(b"".join(lines))
        with pytest.raises(TraceError, match="undecodable"):
            TraceFile.load(path)
        clone = TraceFile.load(path, salvage=True)
        assert clone.salvage.damaged_lines == 1
        assert "undecodable" in clone.salvage.details[0]
        assert clone.salvage.recovered_records == 39

    def test_missing_tail_detected_by_header_count(self, tmp_path):
        # Dropping the last (fully intact) line leaves no damaged
        # lines; only the header's n_records can notice the loss.
        _, path = _saved(tmp_path, n=10)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(TraceError, match="truncated trace"):
            TraceFile.load(path)
        clone = TraceFile.load(path, salvage=True)
        assert clone.salvage.lost_records == 1
        assert clone.salvage.damaged_lines == 0

    def test_checksum_mismatch_skipped_in_salvage(self, tmp_path):
        _, path = _saved(tmp_path, n=10)
        lines = path.read_text().splitlines()
        victim = next(
            i for i, line in enumerate(lines) if '"address":4100' in line
        )
        lines[victim] = lines[victim].replace(
            '"address":4100', '"address":4101'
        )
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceError, match="checksum"):
            TraceFile.load(path)
        clone = TraceFile.load(path, salvage=True)
        assert clone.salvage.damaged_lines == 1
        assert clone.salvage.lost_records == 1
        assert "checksum" in clone.salvage.details[0]
        assert all(e.address != 0x1004 for e in clone.events)

    def test_header_damage_is_fatal_even_in_salvage(self, tmp_path):
        _, path = _saved(tmp_path, n=5)
        lines = path.read_text().splitlines()
        lines[0] = lines[0][: len(lines[0]) // 2]  # half a header
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceError):
            TraceFile.load(path, salvage=True)
