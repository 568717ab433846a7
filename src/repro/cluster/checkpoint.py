"""Crash-safe checkpointing of a cluster simulation in flight.

One CRC-checksummed, atomically-replaced file per checkpoint, written
after every event batch. The record codec is the sweep journal's
(:func:`repro.parallel.journal.encode_record`), so a bit-rotted
checkpoint is *detected* rather than trusted, and the file goes
through :func:`repro.ioutil.atomic_write_text` (write a temp sibling,
fsync, rename, fsync the directory), so a crash mid-checkpoint leaves
the previous one intact. A SIGKILL at any instant loses at most the
batch in flight; ``repro-cluster --resume`` restores the clock, the
event heap (times *and* sequence numbers, so later pushes sort
identically), every node's extent holes and tenant placements, the
admission queue, the journal written so far, and the accounting
ledgers — and then replays the remaining events to a byte-identical
decision journal (CI's ``cluster-chaos`` job kills a live fleet and
``cmp``s exactly that).

The simulation consumes no RNG after :meth:`ArrivalStream.generate`
— every fault verdict is a seeded hash of stable identities — so
"RNG state" in the checkpoint is the arrival stream's own identity:
the session key pins ``(nodes, arrivals, scheduler, strategy, fault
plan, backpressure, …)`` and a fingerprint of the generated trace,
and resuming against any other session refuses.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.errors import CheckpointError
from repro.ioutil import atomic_write_text
from repro.online.migration import HysteresisFilter
from repro.parallel.journal import decode_record, encode_record

#: Bump when the checkpoint payload layout changes incompatibly.
CHECKPOINT_SCHEMA_VERSION = 1

#: File name of the cluster checkpoint inside its directory.
CLUSTER_CHECKPOINT_FILENAME = "cluster.checkpoint"

#: Record type tag (shares the journal's line codec).
RECORD_CLUSTER_CHECKPOINT = "cluster-checkpoint"


def cluster_session_key(identity: dict) -> str:
    """Content hash pinning one cluster run's identity.

    ``identity`` carries everything that shapes the event timeline:
    node specs, the arrival stream (seed, rate, burst), scheduler and
    strategy, grant/hysteresis/migration knobs, the fault plan and the
    backpressure policy, plus a fingerprint of the generated arrival
    trace. Wall-clock-only knobs (checkpoint cadence, chaos pauses)
    are deliberately excluded so a chaos-stretched run resumes
    cleanly.
    """
    canonical = json.dumps(
        {"identity": identity, "schema": CHECKPOINT_SCHEMA_VERSION},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode()).hexdigest()[:32]


def cluster_checkpoint_path(directory: str | Path) -> Path:
    return Path(directory) / CLUSTER_CHECKPOINT_FILENAME


def save_cluster_checkpoint(directory: str | Path, payload: dict) -> Path:
    """Atomically persist one checkpoint payload, fsynced end to end."""
    directory = Path(directory)
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise CheckpointError(
            f"checkpoint dir {directory} is not a directory"
        ) from exc
    path = cluster_checkpoint_path(directory)
    atomic_write_text(
        path, encode_record(RECORD_CLUSTER_CHECKPOINT, payload) + "\n"
    )
    return path


def load_cluster_checkpoint(directory: str | Path) -> dict | None:
    """Read a checkpoint back; ``None`` when none exists yet.

    A present-but-unreadable checkpoint (damaged JSON, CRC mismatch,
    wrong record type) raises :class:`~repro.errors.CheckpointError`:
    the atomic writer never leaves a torn file, so damage means the
    checkpoint cannot be trusted at all, not that its tail is stale.
    """
    path = cluster_checkpoint_path(directory)
    try:
        raw = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return None
    except OSError as exc:
        raise CheckpointError(
            f"cannot read checkpoint {path}: {exc}"
        ) from exc
    decoded = decode_record(raw.strip())
    if decoded is None:
        raise CheckpointError(
            f"{path}: damaged checkpoint (bad JSON or checksum mismatch)"
        )
    found_type, payload = decoded
    if found_type != RECORD_CLUSTER_CHECKPOINT:
        raise CheckpointError(
            f"{path}: not a cluster checkpoint (record type {found_type!r})"
        )
    if payload.get("schema") != CHECKPOINT_SCHEMA_VERSION:
        raise CheckpointError(
            f"{path}: unsupported checkpoint schema "
            f"{payload.get('schema')!r} (expected "
            f"{CHECKPOINT_SCHEMA_VERSION})"
        )
    return payload


def hysteresis_state(hysteresis: HysteresisFilter) -> dict:
    """A tenant's debounce filter as the checkpoint stores it."""
    return {
        "confirm_windows": hysteresis.confirm_windows,
        "applied": sorted(hysteresis.applied),
        "streaks": dict(sorted(hysteresis._streaks.items())),
    }


def restore_hysteresis(state: dict) -> HysteresisFilter:
    """Inverse of :func:`hysteresis_state`; malformed input raises
    ``KeyError``/``TypeError``/``ValueError`` for the caller to
    report as a malformed checkpoint."""
    hysteresis = HysteresisFilter(int(state["confirm_windows"]))
    hysteresis._applied = frozenset(str(s) for s in state["applied"])
    hysteresis._streaks = {
        str(site): int(streak)
        for site, streak in dict(state["streaks"]).items()
    }
    return hysteresis
