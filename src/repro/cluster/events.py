"""Discrete-event substrate: the clock and the event heap.

The cluster simulation never reads wall-clock time — simulated time
lives in a :class:`SimClock` that only event processing advances, so
a run is a pure function of its inputs (the determinism CI diffs
journals across processes to prove). The heap orders events by
``(time, seq)``; the monotone sequence number makes same-instant
events fire in scheduling order, which pins the journal byte-for-byte
even when arrivals and completions collide.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ConfigError

#: Event kinds, in the order simultaneous events of different kinds
#: would have been scheduled.
ARRIVAL = "arrival"
COMPLETE = "complete"

#: Cluster fault-domain events (scheduled by the seeded
#: :class:`~repro.faults.injector.FaultInjector`, first-class on the
#: same heap as arrivals and completions).
NODE_CRASH = "node_crash"
NODE_DRAIN = "node_drain"
NODE_RECOVER = "node_recover"
TENANT_KILL = "tenant_kill"


class SimClock:
    """Monotone simulated clock (seconds since run start)."""

    def __init__(self) -> None:
        self._now = 0.0

    @property
    def now(self) -> float:
        return self._now

    def advance(self, t: float) -> None:
        if t < self._now:
            raise ConfigError(
                f"clock cannot run backwards: {t} < {self._now}"
            )
        self._now = t


@dataclass(frozen=True, slots=True)
class Event:
    """One scheduled occurrence."""

    time: float
    seq: int
    kind: str
    payload: Any


@dataclass
class EventQueue:
    """Seeded-deterministic event heap."""

    _heap: list[tuple[float, int, Event]] = field(default_factory=list)
    _seq: int = 0

    def push(self, time: float, kind: str, payload: Any) -> Event:
        if time < 0:
            raise ConfigError(f"cannot schedule at negative time {time}")
        event = Event(time=time, seq=self._seq, kind=kind, payload=payload)
        heapq.heappush(self._heap, (time, self._seq, event))
        self._seq += 1
        return event

    def pop(self) -> Event:
        if not self._heap:
            raise ConfigError("event queue is empty")
        _, _, event = heapq.heappop(self._heap)
        return event

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
