"""Chaos test: SIGKILL a live repro-online session, resume, byte-diff.

The daemon's crash-safety claim — log every settled window, resume
re-executes and verifies the logged ones and runs the rest, the
decision journal is byte-identical —
is only honest against a real SIGKILL delivered to a live process at
an arbitrary moment, with streaming faults and migration failures in
the plan at the same time.
"""

import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli.main import online_main
from repro.faults.plan import FaultPlan
from repro.online import DECISION_LOG_FILENAME
from repro.parallel.journal import read_journal

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Streaming degradation + migration failures: the resumed session
#: must replay fault verdicts identically, not just placements.
PLAN = FaultPlan(
    seed=7,
    window_drop_rate=0.05,
    window_corrupt_rate=0.10,
    window_late_rate=0.05,
    migration_failure_rate=0.30,
)

VICTIM_SCRIPT = """
import sys
from repro.cli.main import online_main
print("START", flush=True)
raise SystemExit(online_main(sys.argv[1:]))
"""


def online_args(plan_path, journal, checkpoint_dir=None, resume=False,
                pause=None):
    args = [
        "phaseshift", "--budget", "32M", "--hysteresis", "2",
        "--fault-plan", str(plan_path), "--journal", str(journal),
    ]
    if checkpoint_dir is not None:
        args += ["--checkpoint-dir", str(checkpoint_dir)]
    if resume:
        args += ["--resume"]
    if pause is not None:
        args += ["--window-pause", str(pause)]
    return args


@pytest.fixture()
def plan_path(tmp_path):
    path = tmp_path / "plan.json"
    PLAN.save(path)
    return path


def launch_victim(args) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT)]
    )
    return subprocess.Popen(
        [sys.executable, "-c", VICTIM_SCRIPT, *args],
        env=env,
        cwd=REPO_ROOT,
        stdout=subprocess.PIPE,
        text=True,
    )


class TestSigkillResume:
    def test_sigkilled_session_resumes_to_identical_journal(
        self, tmp_path, plan_path
    ):
        baseline = tmp_path / "baseline.journal"
        assert online_main(online_args(plan_path, baseline)) == 0

        journal = tmp_path / "resumed.journal"
        checkpoints = tmp_path / "ckpt"
        # The pause stretches 16 windows over ~2.4s of wall clock so
        # the kill lands mid-session at a random (seeded) moment.
        victim = launch_victim(
            online_args(plan_path, journal, checkpoints, pause=0.15)
        )
        rng = random.Random(0xDECAF)
        try:
            assert victim.stdout.readline().strip() == "START"
            time.sleep(rng.uniform(0.5, 1.5))
            victim.send_signal(signal.SIGKILL)
            victim.wait(timeout=30)
        finally:
            if victim.poll() is None:
                victim.kill()
            victim.stdout.close()
        assert victim.returncode == -signal.SIGKILL
        # The kill landed before the journal was written.
        assert not journal.exists()

        # Whatever the decision log holds, --resume must finish the
        # session and write the exact bytes of the uninterrupted run.
        assert online_main(
            online_args(plan_path, journal, checkpoints, resume=True)
        ) == 0
        assert journal.read_bytes() == baseline.read_bytes()

    def test_checkpoint_readable_after_kill(self, tmp_path, plan_path):
        """The decision log must parse after a kill: its session
        manifest, then a gap-free run of window records, with at most
        a torn final record (which a resume truncates)."""
        journal = tmp_path / "x.journal"
        checkpoints = tmp_path / "ckpt"
        victim = launch_victim(
            online_args(plan_path, journal, checkpoints, pause=0.15)
        )
        try:
            assert victim.stdout.readline().strip() == "START"
            time.sleep(0.9)
            victim.send_signal(signal.SIGKILL)
            victim.wait(timeout=30)
        finally:
            if victim.poll() is None:
                victim.kill()
            victim.stdout.close()
        log = checkpoints / DECISION_LOG_FILENAME
        if log.exists():  # the session got as far as opening its log
            replay = read_journal(log)
            assert replay.manifest is not None
            assert replay.damaged_records <= 1
            windows = sorted(int(key) for key in replay.settled)
            assert windows == list(range(len(windows)))
            assert len(windows) < 16
            assert all(
                record["line"].startswith(f"window {record['key']} ")
                for record in replay.settled.values()
            )
