"""Cluster resume by deterministic replay of its resume log:
byte-identity at every interrupt point, verification and refusals."""

from __future__ import annotations

import pytest

from repro.cluster import (
    ArrivalStream,
    BackpressurePolicy,
    ClusterSim,
    make_fleet,
)
from repro.cluster.simulator import CLUSTER_LOG_FILENAME
from repro.errors import CheckpointError, ConfigError
from repro.faults.plan import FaultPlan
from repro.parallel.journal import (
    RECORD_OUTCOME,
    SweepJournal,
    decode_record,
    encode_record,
    read_journal,
)
from repro.units import MIB

MIX = ("phaseshift", "minife")

# The acceptance scenario: crashes, kills, recovery, an overload
# burst and active backpressure, all at once.
PLAN_KW = dict(
    seed=5,
    node_crash_rate=0.5,
    tenant_kill_rate=0.2,
    node_recover_seconds=40.0,
    overload_burst_factor=3.0,
    overload_burst_fraction=0.5,
)
BP = BackpressurePolicy(
    max_queue_depth=4, max_queue_delay=200.0, down_grant_fraction=0.5
)


def make_sim(cls=ClusterSim, seed=11, **kwargs):
    defaults = dict(
        fault_plan=FaultPlan(**PLAN_KW),
        backpressure=BP,
        rescue_budget=128 * MIB,
    )
    defaults.update(kwargs)
    return cls(
        make_fleet(4, 256 * MIB),
        ArrivalStream(seed=seed, n_arrivals=24, rate=0.2, mix=MIX),
        **defaults,
    )


class Interrupted(Exception):
    """Stands in for SIGKILL inside one process."""


class InterruptingSim(ClusterSim):
    """Dies before its ``stop_after + 1``-th event dispatch."""

    def __init__(self, *args, stop_after: int, **kwargs):
        super().__init__(*args, **kwargs)
        self._stop_after = stop_after
        self._dispatched = 0

    def _dispatch(self, event):
        if self._dispatched >= self._stop_after:
            raise Interrupted
        self._dispatched += 1
        super()._dispatch(event)


def interrupt(tmp_path, stop_after):
    victim = make_sim(
        InterruptingSim, checkpoint_dir=tmp_path, stop_after=stop_after
    )
    with pytest.raises(Interrupted):
        victim.run()


def interrupted_then_resumed(tmp_path, stop_after):
    interrupt(tmp_path, stop_after)
    survivor = make_sim(checkpoint_dir=tmp_path, resume=True)
    report = survivor.run()
    return survivor, report


def log_path(directory):
    return directory / CLUSTER_LOG_FILENAME


def logged_lines(directory) -> list[tuple[str, str]]:
    """(key, line) of the log's records, in file order."""
    return [
        (payload["key"], payload["line"])
        for record_type, payload in (
            decode_record(line)
            for line in log_path(directory).read_text().splitlines()
        )
        if record_type == RECORD_OUTCOME
    ]


def rewrite_record(directory, index: int, edit) -> None:
    """Re-encode record ``index`` after ``edit(payload)``: a record
    with a valid checksum but other contents."""
    path = log_path(directory)
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines):
        record_type, payload = decode_record(line)
        if record_type == RECORD_OUTCOME and payload["key"] == str(index):
            edit(payload)
            lines[i] = encode_record(record_type, payload)
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture(scope="module")
def baseline():
    sim = make_sim()
    report = sim.run()
    return sim.journal_text(), report.to_dict()


@pytest.fixture(scope="module")
def n_events() -> int:
    sim = make_sim(InterruptingSim, stop_after=10**9)
    sim.run()
    return sim._dispatched


class TestResumeGuards:
    def test_resume_without_checkpoint_dir_is_a_config_error(self):
        with pytest.raises(
            ConfigError, match="--resume needs --checkpoint-dir"
        ):
            make_sim(resume=True)

    def test_resume_from_empty_dir_runs_fresh(self, tmp_path, baseline):
        sim = make_sim(checkpoint_dir=tmp_path, resume=True)
        sim.run()
        assert sim.journal_text() == baseline[0]
        assert [line for _, line in logged_lines(tmp_path)] == sim.journal

    def test_foreign_session_checkpoint_refuses(self, tmp_path):
        """Same directory, different arrival seed: a different
        session, refused before the log is touched."""
        make_sim(checkpoint_dir=tmp_path).run()
        before = log_path(tmp_path).read_bytes()
        foreign = make_sim(seed=12, checkpoint_dir=tmp_path, resume=True)
        with pytest.raises(
            CheckpointError, match="different cluster session"
        ):
            foreign.run()
        assert log_path(tmp_path).read_bytes() == before

    def test_wrong_record_type_refuses(self, tmp_path):
        """A sweep journal squatting on the log's file name is not
        this session's resume log."""
        SweepJournal.create(
            tmp_path, {"sweep_key": "abc"}, CLUSTER_LOG_FILENAME
        ).close()
        with pytest.raises(
            CheckpointError, match="different cluster session"
        ):
            make_sim(checkpoint_dir=tmp_path, resume=True).run()

    def test_malformed_payload_refuses(self, tmp_path):
        """A checksummed record without its line is refused before
        any event runs."""
        make_sim(checkpoint_dir=tmp_path).run()
        rewrite_record(tmp_path, 3, lambda p: p.pop("line"))
        with pytest.raises(
            CheckpointError, match="malformed record for journal line 3"
        ):
            make_sim(checkpoint_dir=tmp_path, resume=True).run()

    def test_stale_snapshot_file_is_ignored(self, tmp_path, baseline):
        """A ``cluster.checkpoint`` state snapshot from an older
        release is neither read nor removed."""
        stale = tmp_path / "cluster.checkpoint"
        stale.write_text('{"type": "cluster-checkpoint"}\n')
        sim = make_sim(checkpoint_dir=tmp_path, resume=True)
        sim.run()
        assert sim.journal_text() == baseline[0]
        assert stale.read_text() == '{"type": "cluster-checkpoint"}\n'

    def test_event_pause_validation(self):
        with pytest.raises(ConfigError):
            make_sim(event_pause_seconds=-1.0)


class TestResumeByteIdentity:
    def test_interrupt_and_resume_matches_uninterrupted_journal(
        self, tmp_path, baseline
    ):
        survivor, report = interrupted_then_resumed(tmp_path, stop_after=10)
        assert survivor.journal_text() == baseline[0]
        assert report.to_dict() == baseline[1]
        assert report.accounted

    @pytest.mark.parametrize("stop_after", [1, 5, 25, 60])
    def test_any_interrupt_point_resumes_identically(
        self, tmp_path, baseline, stop_after
    ):
        survivor, _ = interrupted_then_resumed(
            tmp_path, stop_after=stop_after
        )
        assert survivor.journal_text() == baseline[0]

    def test_every_interrupt_point_resumes_identically(
        self, tmp_path, baseline, n_events
    ):
        """Before each event, the first to the last: the resumed
        journal, report and log all equal the uninterrupted run's."""
        for stop_after in range(n_events):
            directory = tmp_path / str(stop_after)
            survivor, report = interrupted_then_resumed(
                directory, stop_after
            )
            assert survivor.journal_text() == baseline[0], stop_after
            assert report.to_dict() == baseline[1], stop_after
            assert logged_lines(directory) == [
                (str(i), line) for i, line in enumerate(survivor.journal)
            ], stop_after

    def test_resuming_a_finished_run_is_idempotent(self, tmp_path):
        first = make_sim(checkpoint_dir=tmp_path)
        first.run()
        again = make_sim(checkpoint_dir=tmp_path, resume=True)
        again.run()
        assert again.journal_text() == first.journal_text()
        assert [line for _, line in logged_lines(tmp_path)] == first.journal


class TestLogVerification:
    def test_log_holds_every_line_with_one_fsync_per_event(
        self, tmp_path, monkeypatch, n_events
    ):
        commits = []
        real = SweepJournal.record_outcome

        def counting(journal, payload):
            commits.append(payload["key"])
            real(journal, payload)

        monkeypatch.setattr(SweepJournal, "record_outcome", counting)
        sim = make_sim(checkpoint_dir=tmp_path)
        sim.run()
        assert logged_lines(tmp_path) == [
            (str(i), line) for i, line in enumerate(sim.journal)
        ]
        # Setup, the events that wrote lines, and the footer: each
        # batch is committed once, by its last record.
        assert len(commits) <= n_events + 2
        assert len(commits) < len(sim.journal)
        assert commits[-1] == str(len(sim.journal) - 1)

    def test_tampered_line_names_its_record(self, tmp_path):
        make_sim(checkpoint_dir=tmp_path).run()
        rewrite_record(
            tmp_path, 7, lambda p: p.update(line=p["line"] + " tampered")
        )
        with pytest.raises(
            CheckpointError, match="journal line 7 does not replay"
        ) as excinfo:
            make_sim(checkpoint_dir=tmp_path, resume=True).run()
        # Both the logged and the re-executed line are named.
        assert "tampered" in str(excinfo.value)

    def test_torn_tail_is_truncated_and_reexecuted(
        self, tmp_path, baseline
    ):
        interrupt(tmp_path, stop_after=10)
        path = log_path(tmp_path)
        n_logged = len(logged_lines(tmp_path))
        torn = encode_record(
            RECORD_OUTCOME, {"key": str(n_logged), "line": "torn"}
        )
        path.write_bytes(path.read_bytes() + torn[: len(torn) // 2].encode())
        assert read_journal(path).damaged_records == 1
        survivor = make_sim(checkpoint_dir=tmp_path, resume=True)
        survivor.run()
        assert survivor.journal_text() == baseline[0]
        assert read_journal(path).damaged_records == 0
        assert [key for key, _ in logged_lines(tmp_path)] == [
            str(i) for i in range(len(survivor.journal))
        ]

    def test_log_longer_than_the_run_refuses(self, tmp_path):
        first = make_sim(checkpoint_dir=tmp_path)
        first.run()
        extra = len(first.journal)
        with open(log_path(tmp_path), "a") as fh:
            fh.write(
                encode_record(
                    RECORD_OUTCOME, {"key": str(extra), "line": "surplus"}
                )
                + "\n"
            )
        with pytest.raises(
            CheckpointError, match=f"journal line {extra} does not replay"
        ):
            make_sim(checkpoint_dir=tmp_path, resume=True).run()
