"""Crash-safe cluster checkpoints: resume semantics and refusals."""

from __future__ import annotations

import pytest

from repro.cluster import (
    ArrivalStream,
    BackpressurePolicy,
    ClusterSim,
    EventQueue,
    make_fleet,
)
from repro.cluster.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    cluster_checkpoint_path,
    load_cluster_checkpoint,
    save_cluster_checkpoint,
)
from repro.errors import CheckpointError, ConfigError
from repro.parallel.journal import encode_record
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


def make_sim(**kwargs):
    from repro.faults.plan import FaultPlan

    defaults = dict(
        fault_plan=FaultPlan(**PLAN_KW),
        backpressure=BP,
        rescue_budget=128 * MIB,
    )
    defaults.update(kwargs)
    return ClusterSim(
        make_fleet(4, 256 * MIB),
        ArrivalStream(seed=11, n_arrivals=24, rate=0.2, mix=MIX),
        **defaults,
    )


class Interrupted(Exception):
    """Stands in for SIGKILL inside one process."""


class InterruptingSim(ClusterSim):
    def __init__(self, *args, stop_after: int, **kwargs):
        super().__init__(*args, **kwargs)
        self._stop_after = stop_after

    def _dispatch(self, event):
        if self._events_processed >= self._stop_after:
            raise Interrupted
        super()._dispatch(event)


def interrupted_then_resumed(tmp_path, stop_after, checkpoint_every=1):
    from repro.faults.plan import FaultPlan

    victim = InterruptingSim(
        make_fleet(4, 256 * MIB),
        ArrivalStream(seed=11, n_arrivals=24, rate=0.2, mix=MIX),
        fault_plan=FaultPlan(**PLAN_KW),
        backpressure=BP,
        rescue_budget=128 * MIB,
        checkpoint_dir=tmp_path,
        checkpoint_every=checkpoint_every,
        stop_after=stop_after,
    )
    with pytest.raises(Interrupted):
        victim.run()
    survivor = make_sim(checkpoint_dir=tmp_path, resume=True)
    report = survivor.run()
    return survivor, report


class TestResumeGuards:
    def test_resume_without_checkpoint_dir_is_a_config_error(self):
        with pytest.raises(
            ConfigError, match="--resume needs --checkpoint-dir"
        ):
            make_sim(resume=True)

    def test_resume_from_empty_dir_refuses(self, tmp_path):
        sim = make_sim(checkpoint_dir=tmp_path, resume=True)
        with pytest.raises(
            CheckpointError, match="no cluster checkpoint to resume from"
        ):
            sim.run()

    def test_foreign_session_checkpoint_refuses(self, tmp_path):
        first = make_sim(checkpoint_dir=tmp_path)
        first.run()
        # Same directory, different arrival seed: a different session.
        from repro.faults.plan import FaultPlan

        foreign = ClusterSim(
            make_fleet(4, 256 * MIB),
            ArrivalStream(seed=12, n_arrivals=24, rate=0.2, mix=MIX),
            fault_plan=FaultPlan(**PLAN_KW),
            backpressure=BP,
            rescue_budget=128 * MIB,
            checkpoint_dir=tmp_path,
            resume=True,
        )
        with pytest.raises(
            CheckpointError, match="different cluster session"
        ):
            foreign.run()

    def test_damaged_checkpoint_refuses(self, tmp_path):
        save_cluster_checkpoint(tmp_path, {"schema": 1})
        path = cluster_checkpoint_path(tmp_path)
        path.write_text(path.read_text()[:-10] + "corrupted\n")
        with pytest.raises(CheckpointError, match="damaged checkpoint"):
            load_cluster_checkpoint(tmp_path)

    def test_wrong_record_type_refuses(self, tmp_path):
        # An *online* checkpoint squatting on the cluster file name
        # must be called out by kind, not parsed on faith.
        cluster_checkpoint_path(tmp_path).write_text(
            encode_record(
                "online-checkpoint", {"schema": CHECKPOINT_SCHEMA_VERSION}
            )
            + "\n"
        )
        with pytest.raises(
            CheckpointError, match="not a cluster checkpoint"
        ):
            load_cluster_checkpoint(tmp_path)

    def test_malformed_payload_refuses(self, tmp_path):
        # Structurally valid record, garbage inside.
        first = make_sim(checkpoint_dir=tmp_path)
        first.run()
        payload = load_cluster_checkpoint(tmp_path)
        del payload["nodes"]
        save_cluster_checkpoint(tmp_path, payload)
        sim = make_sim(checkpoint_dir=tmp_path, resume=True)
        with pytest.raises(
            CheckpointError, match="malformed cluster checkpoint"
        ):
            sim.run()


class TestResumeByteIdentity:
    def test_interrupt_and_resume_matches_uninterrupted_journal(
        self, tmp_path
    ):
        baseline = make_sim()
        baseline_report = baseline.run()
        survivor, report = interrupted_then_resumed(tmp_path, stop_after=10)
        assert survivor.journal_text() == baseline.journal_text()
        assert report.to_dict() == baseline_report.to_dict()
        assert report.accounted

    @pytest.mark.parametrize("stop_after", [1, 5, 25, 60])
    def test_any_interrupt_point_resumes_identically(
        self, tmp_path, stop_after
    ):
        baseline = make_sim()
        baseline.run()
        survivor, _ = interrupted_then_resumed(
            tmp_path, stop_after=stop_after
        )
        assert survivor.journal_text() == baseline.journal_text()

    def test_sparser_checkpoint_cadence_still_resumes_identically(
        self, tmp_path
    ):
        # With --checkpoint-every 4 an interrupt loses the batch in
        # flight; the resumed run replays it deterministically.
        baseline = make_sim()
        baseline.run()
        survivor, report = interrupted_then_resumed(
            tmp_path, stop_after=10, checkpoint_every=4
        )
        assert survivor.journal_text() == baseline.journal_text()
        assert report.accounted

    def test_resuming_a_finished_run_is_idempotent(self, tmp_path):
        first = make_sim(checkpoint_dir=tmp_path)
        first.run()
        again = make_sim(checkpoint_dir=tmp_path, resume=True)
        again.run()
        assert again.journal_text() == first.journal_text()

    def test_checkpoint_cadence_validation(self):
        with pytest.raises(ConfigError):
            make_sim(checkpoint_every=0)
        with pytest.raises(ConfigError):
            make_sim(event_pause_seconds=-1.0)


class TestEventQueueRestore:
    def test_snapshot_restore_round_trips_pop_order(self):
        queue = EventQueue()
        queue.push(5.0, "arrival", "a")
        queue.push(1.0, "arrival", "b")
        queue.push(1.0, "complete", "c")  # same instant, later seq
        snapshot = queue.snapshot()
        restored = EventQueue.restore(snapshot, next_seq=queue._seq)
        original = [queue.pop() for _ in range(3)]
        resumed = [restored.pop() for _ in range(3)]
        assert original == resumed
        assert [e.payload for e in original] == ["b", "c", "a"]

    def test_restored_counter_keeps_later_pushes_sorting(self):
        queue = EventQueue()
        queue.push(1.0, "arrival", "a")
        restored = EventQueue.restore(queue.snapshot(), next_seq=1)
        later = restored.push(1.0, "complete", "b")
        assert later.seq == 1
        assert restored.pop().payload == "a"

    def test_restore_rejects_seq_at_or_above_counter(self):
        queue = EventQueue()
        queue.push(1.0, "arrival", "a")
        with pytest.raises(ConfigError, match="not below"):
            EventQueue.restore(queue.snapshot(), next_seq=0)
