"""Daemon resume by deterministic replay of its decision log:
durability, identity, verification, byte-equality."""

import itertools

import pytest

from repro.apps.registry import get_app
from repro.errors import CheckpointError
from repro.faults import FaultPlan
from repro.online import (
    DECISION_LOG_FILENAME,
    OnlineConfig,
    OnlineDaemon,
    run_online,
)
from repro.online.daemon import session_key
from repro.parallel.journal import (
    RECORD_OUTCOME,
    SweepJournal,
    decode_record,
    encode_record,
    read_journal,
)
from repro.pipeline.framework import HybridMemoryFramework
from repro.units import MIB

BUDGET = 32 * MIB

#: Streaming degradation on, so resume byte-equality is asserted on
#: the *hard* path: fault verdicts must replay identically too.
PLAN = FaultPlan(
    seed=7,
    window_drop_rate=0.05,
    window_corrupt_rate=0.10,
    window_late_rate=0.05,
    migration_failure_rate=0.30,
)


def fresh_framework(plan=PLAN):
    return HybridMemoryFramework(
        get_app("phaseshift"), seed=0, fault_plan=plan
    )


@pytest.fixture(scope="module")
def baseline_journal():
    run = run_online(fresh_framework(), BUDGET, OnlineConfig(confirm_windows=2))
    return run.journal_lines()


class _CrashAfter(Exception):
    pass


def run_until_logged(k: int, directory, monkeypatch, session=None) -> None:
    """Run a session but die (exception) right after the k-th window
    record is appended — windows 0..k-1 are durable, the rest never
    happened. ``session`` runs instead of the default faulted one."""
    real = SweepJournal.record_outcome
    calls = {"n": 0}

    def crashing(journal, payload):
        real(journal, payload)
        calls["n"] += 1
        if calls["n"] == k:
            raise _CrashAfter

    monkeypatch.setattr(SweepJournal, "record_outcome", crashing)
    with pytest.raises(_CrashAfter):
        if session is None:
            run_online(
                fresh_framework(), BUDGET, OnlineConfig(confirm_windows=2),
                checkpoint_dir=directory,
            )
        else:
            session()
    monkeypatch.setattr(SweepJournal, "record_outcome", real)


def log_path(directory):
    return directory / DECISION_LOG_FILENAME


def logged_windows(directory) -> list[str]:
    """Window keys of the log's window records, in file order."""
    return [
        payload["key"]
        for record_type, payload in (
            decode_record(line)
            for line in log_path(directory).read_text().splitlines()
        )
        if record_type == RECORD_OUTCOME
    ]


def rewrite_window(directory, index: int, edit) -> None:
    """Re-encode window ``index``'s record after ``edit(payload)`` —
    a well-formed record with a valid checksum, but other contents."""
    path = log_path(directory)
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines):
        record_type, payload = decode_record(line)
        if record_type == RECORD_OUTCOME and payload["key"] == str(index):
            edit(payload)
            lines[i] = encode_record(record_type, payload)
    path.write_text("\n".join(lines) + "\n")


class TestResume:
    @pytest.mark.parametrize("k", [1, 5, 9, 15])
    def test_resume_journal_byte_identical(
        self, k, tmp_path, monkeypatch, baseline_journal
    ):
        """Die after any window; the resumed session's journal equals
        the uninterrupted run's, byte for byte — faults included."""
        run_until_logged(k, tmp_path, monkeypatch)
        resumed = run_online(
            fresh_framework(), BUDGET, OnlineConfig(confirm_windows=2),
            checkpoint_dir=tmp_path, resume=True,
        )
        assert resumed.journal_lines() == baseline_journal

    def test_resume_appends_only_unlogged_windows(
        self, tmp_path, monkeypatch
    ):
        """After a crash at window k the resumed session re-executes
        the logged windows (verifying them) and logs only the rest."""
        run_until_logged(6, tmp_path, monkeypatch)
        assert logged_windows(tmp_path) == [str(i) for i in range(6)]
        run_online(
            fresh_framework(), BUDGET, OnlineConfig(confirm_windows=2),
            checkpoint_dir=tmp_path, resume=True,
        )
        assert logged_windows(tmp_path) == [str(i) for i in range(16)]

    def test_resume_from_completed_checkpoint_is_pure_replay(
        self, tmp_path, baseline_journal
    ):
        config = OnlineConfig(confirm_windows=2)
        run_online(
            fresh_framework(), BUDGET, config, checkpoint_dir=tmp_path
        )
        replayed = run_online(
            fresh_framework(), BUDGET, config,
            checkpoint_dir=tmp_path, resume=True,
        )
        assert replayed.journal_lines() == baseline_journal
        replay = read_journal(log_path(tmp_path))
        assert len(replay.settled) == 16
        assert logged_windows(tmp_path) == [str(i) for i in range(16)]

    def test_without_resume_flag_checkpoint_is_overwritten(
        self, tmp_path, monkeypatch, baseline_journal
    ):
        """checkpoint_dir without resume starts from scratch (and still
        produces the same journal, because the loop is deterministic)."""
        run_until_logged(3, tmp_path, monkeypatch)
        run = run_online(
            fresh_framework(), BUDGET, OnlineConfig(confirm_windows=2),
            checkpoint_dir=tmp_path,
        )
        assert run.journal_lines() == baseline_journal
        assert logged_windows(tmp_path) == [str(i) for i in range(16)]

    def test_fresh_dir_resume_runs_from_scratch(
        self, tmp_path, baseline_journal
    ):
        run = run_online(
            fresh_framework(), BUDGET, OnlineConfig(confirm_windows=2),
            checkpoint_dir=tmp_path / "empty", resume=True,
        )
        assert run.journal_lines() == baseline_journal


def stepping_clock(slow_call: int):
    """A clock that advances 1 s per call and jumps 100 s at call
    number ``slow_call``. On a fault-free session every window reads
    the clock twice (start, finish), so ``slow_call=2k+1`` makes
    window ``k`` alone take 101 s."""
    calls = itertools.count()

    def clock() -> float:
        n = next(calls)
        return n + (100.0 if n >= slow_call else 0.0)

    return clock


class TestDeadlineReplay:
    K = 4
    CONFIG = OnlineConfig(confirm_windows=2, decision_deadline_seconds=50.0)

    def session(self, clock, directory=None, resume=False):
        return OnlineDaemon(
            fresh_framework(plan=None), BUDGET, self.CONFIG,
            checkpoint_dir=directory, resume=resume, clock=clock,
        ).run()

    def test_deadline_freeze_replays_from_log(self, tmp_path, monkeypatch):
        """Window K overran its deadline when first decided; a resume
        under a fast clock still freezes it, because the log says so."""
        slow = stepping_clock(2 * self.K + 1)
        baseline = self.session(stepping_clock(2 * self.K + 1))
        lines = baseline.journal_lines()
        assert f"window {self.K} " in lines[1 + self.K]
        assert lines[1 + self.K].endswith("degraded=deadline")
        assert sum("degraded=deadline" in line for line in lines) == 1
        fast = self.session(lambda: 0.0)
        assert fast.journal_lines() != lines  # the freeze mattered

        run_until_logged(
            self.K + 1, tmp_path, monkeypatch,
            session=lambda: self.session(slow, tmp_path),
        )
        resumed = self.session(lambda: 0.0, tmp_path, resume=True)
        assert resumed.journal_lines() == lines
        assert resumed.decisions[self.K].reason == "deadline"

    def test_logged_windows_are_not_re_timed(self, tmp_path):
        """A resume under a clock on which every decision overruns
        must not freeze windows the log recorded as on time."""
        fast = self.session(lambda: 0.0, tmp_path)
        ticks = itertools.count(step=100)
        slow = self.session(
            lambda: float(next(ticks)), tmp_path, resume=True
        )
        assert slow.journal_lines() == fast.journal_lines()
        assert not any(
            "deadline" in line for line in slow.journal_lines()
        )


class TestVerification:
    def test_tampered_line_names_the_window(self, tmp_path):
        config = OnlineConfig(confirm_windows=2)
        run_online(
            fresh_framework(), BUDGET, config, checkpoint_dir=tmp_path
        )
        rewrite_window(
            tmp_path, 7,
            lambda p: p.update(line=p["line"].replace("window 7", "window 70")),
        )
        with pytest.raises(CheckpointError, match="window 7 does not replay"):
            run_online(
                fresh_framework(), BUDGET, config,
                checkpoint_dir=tmp_path, resume=True,
            )

    def test_torn_tail_is_truncated(
        self, tmp_path, monkeypatch, baseline_journal
    ):
        """A record cut short by the crash is dropped; the resume
        re-executes that window and the journal is unchanged."""
        run_until_logged(6, tmp_path, monkeypatch)
        path = log_path(tmp_path)
        whole = path.read_bytes()
        torn = encode_record(RECORD_OUTCOME, {"key": "6", "line": "w"})
        path.write_bytes(whole + torn[: len(torn) // 2].encode())
        run = run_online(
            fresh_framework(), BUDGET, OnlineConfig(confirm_windows=2),
            checkpoint_dir=tmp_path, resume=True,
        )
        assert run.journal_lines() == baseline_journal
        replay = read_journal(path)
        assert replay.damaged_records == 0
        assert logged_windows(tmp_path) == [str(i) for i in range(16)]


class TestSessionIdentity:
    def test_foreign_session_checkpoint_refused(self, tmp_path):
        """A log written under one budget must not resume a session
        with another — refuse, like the sweep journal does, and leave
        the log untouched."""
        config = OnlineConfig(confirm_windows=2)
        run_online(
            fresh_framework(), BUDGET, config, checkpoint_dir=tmp_path
        )
        before = log_path(tmp_path).read_bytes()
        with pytest.raises(CheckpointError, match="different online session"):
            run_online(
                fresh_framework(), 2 * BUDGET, config,
                checkpoint_dir=tmp_path, resume=True,
            )
        assert log_path(tmp_path).read_bytes() == before

    def test_different_fault_plan_changes_nothing_but_key_inputs(self):
        """session_key pins every identity input separately."""
        base = dict(
            application="a", budget_real=1, seed=0,
            config={"x": 1}, trace_fingerprint="f",
        )
        key = session_key(**base)
        assert key == session_key(**base)
        for field, value in [
            ("application", "b"),
            ("budget_real", 2),
            ("seed", 1),
            ("config", {"x": 2}),
            ("trace_fingerprint", "g"),
        ]:
            assert session_key(**{**base, field: value}) != key


class TestDurability:
    def test_corrupt_checkpoint_detected(
        self, tmp_path, baseline_journal
    ):
        """A record whose checksum no longer matches ends the trusted
        prefix: it and everything after it are re-executed."""
        config = OnlineConfig(confirm_windows=2)
        run_online(
            fresh_framework(), BUDGET, config, checkpoint_dir=tmp_path
        )
        path = log_path(tmp_path)
        raw = path.read_text()
        path.write_text(raw.replace("window 4 ", "window 5 ", 1))  # CRC stale
        assert read_journal(path).damaged_records == 12
        run = run_online(
            fresh_framework(), BUDGET, config,
            checkpoint_dir=tmp_path, resume=True,
        )
        assert run.journal_lines() == baseline_journal
        assert read_journal(path).damaged_records == 0
        assert logged_windows(tmp_path) == [str(i) for i in range(16)]

    def test_wrong_record_type_refused(self, tmp_path):
        """A sweep journal squatting on the log's file name is not
        this session's decision log."""
        SweepJournal.create(
            tmp_path, {"sweep_key": "abc"}, DECISION_LOG_FILENAME
        ).close()
        with pytest.raises(CheckpointError, match="different online session"):
            run_online(
                fresh_framework(), BUDGET, OnlineConfig(confirm_windows=2),
                checkpoint_dir=tmp_path, resume=True,
            )

    def test_checkpoint_dir_must_be_a_directory(self, tmp_path):
        clash = tmp_path / "file"
        clash.write_text("not a dir")
        with pytest.raises(CheckpointError, match="not a directory"):
            run_online(
                fresh_framework(), BUDGET, OnlineConfig(confirm_windows=2),
                checkpoint_dir=clash,
            )

    def test_malformed_payload_refused_on_restore(self, tmp_path):
        """A checksummed record missing its deadline flag is refused
        before any window runs."""
        config = OnlineConfig(confirm_windows=2)
        run_online(
            fresh_framework(), BUDGET, config, checkpoint_dir=tmp_path
        )
        rewrite_window(tmp_path, 2, lambda p: p.pop("deadline"))
        with pytest.raises(CheckpointError, match="malformed record for window 2"):
            run_online(
                fresh_framework(), BUDGET, config,
                checkpoint_dir=tmp_path, resume=True,
            )
