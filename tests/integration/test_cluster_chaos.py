"""Chaos test: SIGKILL a live repro-cluster run, resume, byte-diff.

The cluster simulator's crash-safety claim — every journal line is
appended to a resume log as it is written, a resume re-runs from t=0
verifying the logged lines, and the decision journal is
byte-identical — is only honest against a real SIGKILL delivered to
a live process at an arbitrary moment, with node crashes, tenant
kills and an overload burst in the plan at the same time.
"""

import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli.main import cluster_main
from repro.cluster.simulator import CLUSTER_LOG_FILENAME
from repro.faults.plan import FaultPlan
from repro.parallel.journal import read_journal

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Node crashes + tenant kills + an overload burst: the resumed run
#: must replay rescue and shed verdicts identically, not just
#: admissions.
PLAN = FaultPlan(
    seed=5,
    node_crash_rate=0.5,
    tenant_kill_rate=0.2,
    node_recover_seconds=40.0,
    overload_burst_factor=3.0,
    overload_burst_fraction=0.5,
)

VICTIM_SCRIPT = """
import sys
from repro.cli.main import cluster_main
print("START", flush=True)
raise SystemExit(cluster_main(sys.argv[1:]))
"""


def cluster_args(plan_path, journal, checkpoint_dir=None, resume=False,
                 pause=None):
    args = [
        "--nodes", "4", "--node-budget", "256M",
        "--arrivals", "24", "--rate", "0.2", "--seed", "11",
        "--apps", "phaseshift,minife",
        "--rescue-budget", "128M",
        "--max-queue-depth", "4", "--max-queue-delay", "200",
        "--down-grant-fraction", "0.5",
        "--fault-plan", str(plan_path), "--journal", str(journal),
    ]
    if checkpoint_dir is not None:
        args += ["--checkpoint-dir", str(checkpoint_dir)]
    if resume:
        args += ["--resume"]
    if pause is not None:
        args += ["--event-pause", str(pause)]
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
    def test_sigkilled_cluster_resumes_to_identical_journal(
        self, tmp_path, plan_path
    ):
        baseline = tmp_path / "baseline.journal"
        assert cluster_main(cluster_args(plan_path, baseline)) == 0

        journal = tmp_path / "resumed.journal"
        checkpoints = tmp_path / "ckpt"
        # The pause stretches the event loop over several seconds of
        # wall clock so the kill lands mid-run at a random (seeded)
        # moment.
        victim = launch_victim(
            cluster_args(plan_path, journal, checkpoints, pause=0.05)
        )
        rng = random.Random(0xC0FFEE)
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

        # Whatever prefix the log holds, --resume must finish the run
        # and write the exact bytes of the uninterrupted one.
        assert cluster_main(
            cluster_args(plan_path, journal, checkpoints, resume=True)
        ) == 0
        assert journal.read_bytes() == baseline.read_bytes()

    def test_checkpoint_readable_after_kill(self, tmp_path, plan_path):
        """The resume log must parse after a kill: a manifest, then
        whole records numbered from 0 (a torn tail is at most one
        record, which a resume truncates)."""
        journal = tmp_path / "x.journal"
        checkpoints = tmp_path / "ckpt"
        victim = launch_victim(
            cluster_args(plan_path, journal, checkpoints, pause=0.05)
        )
        try:
            assert victim.stdout.readline().strip() == "START"
            time.sleep(0.8)
            victim.send_signal(signal.SIGKILL)
            victim.wait(timeout=30)
        finally:
            if victim.poll() is None:
                victim.kill()
            victim.stdout.close()
        log = checkpoints / CLUSTER_LOG_FILENAME
        if log.exists():  # the run got as far as opening its log
            replay = read_journal(log)
            assert set(replay.manifest) == {"session_key"}
            assert replay.damaged_records <= 1
            assert sorted(replay.settled, key=int) == [
                str(i) for i in range(len(replay.settled))
            ]
            lines = [replay.settled[str(i)]["line"]
                     for i in range(len(replay.settled))]
            assert lines[0].startswith("# repro-cluster nodes=4 ")
            # Killed mid-run: the footer was never logged.
            assert not any(line.startswith("accounting ") for line in lines)

    def test_resume_without_checkpoint_dir_fails_fast(
        self, tmp_path, plan_path, capsys
    ):
        journal = tmp_path / "never.journal"
        rc = cluster_main(
            cluster_args(plan_path, journal, resume=True)
        )
        assert rc != 0
        err = capsys.readouterr().err
        assert "--resume needs --checkpoint-dir" in err
        assert not journal.exists()
