"""Golden cluster journals: a fleet run's decisions must not drift while
the scheduling machinery underneath them changes.

One SHA-256 digest per (scheduler policy, scenario) of the run's
``journal_text()``, plus (under the ``checkpoint`` key) the digest of
the resume log ``cluster.log`` for the scenario that writes one. The scenarios cover the three admission
paths the simulator has:

* ``clean`` — the perfbench ``cluster`` fleet (4 x 512 MiB, 96
  arrivals of the default mix at 0.5/s): a standing queue that every
  departure drains;
* ``faults`` — node crashes, drains and tenant kills with a per-node
  rescue budget, with its resume log in a checkpoint directory;
* ``backpressure`` — down-granting and queue-depth shedding on a hot
  stream.

The same runs, made through a counting wrapper around the policy,
check the admission path's skip rule: the simulator never asks a
policy at a bar no offered node can meet, so every call it makes
places a request.

The fixture ``journal_fingerprints.json`` is committed; regenerate it
only deliberately, when a change is meant to move the decisions,
with::

    PYTHONPATH=src python tests/cluster/test_journal_fingerprint.py
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from repro.cluster import ArrivalStream, BackpressurePolicy, ClusterSim, make_fleet
from repro.cluster.scheduler import (
    SCHEDULER_NAMES,
    SchedulerPolicy,
    get_scheduler,
)
from repro.cluster.simulator import CLUSTER_LOG_FILENAME
from repro.faults.plan import FaultPlan
from repro.units import MIB

FIXTURE = Path(__file__).with_name("journal_fingerprints.json")
MIX = ("phaseshift", "minife")
SCENARIOS = ("clean", "faults", "backpressure")
#: Journal verbs each scenario must exercise, so a fixture cannot pin
#: a run that never reached the path it claims to cover.
EXERCISES = {
    "clean": ("queue ", "dequeue ", "readvise "),
    "faults": (
        "crash ", "drain ", "rescue ", "casualty ", "schedule-kill ",
        "dequeue ",
    ),
    "backpressure": ("downgrant ", "shed ", "dequeue "),
}


def scenario_sim(
    scheduler: str | SchedulerPolicy,
    scenario: str,
    checkpoint_dir: str | None = None,
) -> ClusterSim:
    if scenario == "clean":
        return ClusterSim(
            make_fleet(4, 512 * MIB),
            ArrivalStream(seed=1, n_arrivals=96, rate=0.5),
            scheduler=scheduler,
        )
    if scenario == "faults":
        return ClusterSim(
            make_fleet(4, 512 * MIB),
            ArrivalStream(seed=11, n_arrivals=40, rate=0.2, mix=MIX),
            scheduler=scheduler,
            fault_plan=FaultPlan(
                seed=11,
                node_crash_rate=0.4,
                node_drain_rate=0.4,
                tenant_kill_rate=0.2,
                node_recover_seconds=40.0,
            ),
            rescue_budget=256 * MIB,
            checkpoint_dir=checkpoint_dir,
        )
    if scenario == "backpressure":
        return ClusterSim(
            make_fleet(3, 256 * MIB),
            ArrivalStream(seed=11, n_arrivals=40, rate=0.5, mix=MIX),
            scheduler=scheduler,
            backpressure=BackpressurePolicy(
                max_queue_depth=8, down_grant_fraction=0.2
            ),
        )
    raise ValueError(f"unknown scenario {scenario!r}")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def journal_fingerprint(
    scheduler: str | SchedulerPolicy, scenario: str
) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        writes = scenario == "faults"
        sim = scenario_sim(scheduler, scenario, tmp if writes else None)
        sim.run()
        text = sim.journal_text()
        digests = {"journal": _sha256(text.encode())}
        if writes:
            digests["checkpoint"] = _sha256(
                (Path(tmp) / CLUSTER_LOG_FILENAME).read_bytes()
            )
    return {"digests": digests, "text": text}


def _case_id(scheduler: str, scenario: str) -> str:
    return f"{scheduler}/{scenario}"


def _cases() -> list[tuple[str, str]]:
    return [(s, c) for s in SCHEDULER_NAMES for c in SCENARIOS]


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(_case_id(*case) for case in _cases())


@pytest.mark.parametrize(
    "scheduler,scenario", _cases(), ids=[_case_id(*c) for c in _cases()]
)
def test_journal_matches_golden(golden, scheduler, scenario):
    run = journal_fingerprint(scheduler, scenario)
    for verb in EXERCISES[scenario]:
        assert f" {verb}" in run["text"], f"scenario never logs {verb!r}"
    assert run["digests"] == golden[_case_id(scheduler, scenario)]


@pytest.mark.parametrize(
    "scheduler,scenario", _cases(), ids=[_case_id(*c) for c in _cases()]
)
def test_every_policy_call_places(golden, scheduler, scenario):
    """Queue drains, arrivals and rescues ask the policy only at a bar
    some offered (up) node's largest hole clears; with the built-in
    policies every call then places a request, and skipping the
    others leaves the journal on its golden digest."""
    policy = get_scheduler(scheduler)
    calls: list[bool] = []

    def counting(nodes, bar):
        assert all(n.status == "up" for n in nodes)
        assert bar <= max((n.largest_free for n in nodes), default=0)
        node = policy(nodes, bar)
        calls.append(node is not None)
        return node

    counting.__name__ = scheduler
    run = journal_fingerprint(counting, scenario)
    assert run["digests"] == golden[_case_id(scheduler, scenario)]
    assert calls and all(calls)
    placements = sum(
        f" {verb} " in line
        for line in run["text"].splitlines()
        for verb in ("admit", "rescue")
    )
    assert len(calls) == placements


if __name__ == "__main__":
    FIXTURE.write_text(
        json.dumps(
            {
                _case_id(*case): journal_fingerprint(*case)["digests"]
                for case in _cases()
            },
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {FIXTURE}")
