"""Retry policy shared by the sweep executor and the online daemon.

Both retry a failed unit of work (a grid cell, a page migration) after
a decorrelated-jitter delay, and both stop retrying an application
whose failures are deterministic. The delay is drawn from a hash of
the caller's seed and the unit's identity rather than from an RNG, so
it is reproducible across processes and resumed runs.
"""

from __future__ import annotations

import hashlib

from repro.errors import CATEGORY_DETERMINISTIC, CATEGORY_POISONED, ConfigError


def seeded_unit(seed: int, *tokens: object) -> float:
    """Deterministic uniform draw in [0, 1) keyed on ``tokens``."""
    digest = hashlib.sha256(repr((seed, tokens)).encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def backoff_delay(
    base: float, attempt_done: int, seed: int, *tokens: object
) -> float:
    """Delay before the attempt after ``attempt_done`` failed.

    Decorrelated jitter (``sleep_n = U(base, 3 * sleep_{n-1})``,
    capped at ``32 * base``), the ``n``-th draw keyed on ``(seed,
    *tokens, n)``: units retried together spread out instead of
    stampeding in lockstep, and the schedule is a pure function of
    its inputs. A non-positive ``base`` disables the delay.
    """
    if base <= 0:
        return 0.0
    cap = base * 32
    sleep = base
    for i in range(1, attempt_done + 1):
        u = seeded_unit(seed, *tokens, i)
        sleep = min(cap, base + u * max(0.0, 3.0 * sleep - base))
    return sleep


class CircuitBreaker:
    """Per-application deterministic-failure circuit.

    Counts units that *finally* failed with a ``deterministic`` or
    ``poisoned-input`` category (transient faults never count). Once
    an application accumulates ``threshold`` such failures its circuit
    opens and the caller refuses its remaining work, bounding the
    cost of an application model that is simply broken.
    """

    def __init__(self, threshold: int | None) -> None:
        if threshold is not None and threshold < 1:
            raise ConfigError("circuit threshold must be >= 1")
        self.threshold = threshold
        self.failures: dict[str, int] = {}

    def record_failure(self, application: str, category: str | None) -> None:
        if category in (CATEGORY_DETERMINISTIC, CATEGORY_POISONED):
            self.failures[application] = self.failures.get(application, 0) + 1

    def is_open(self, application: str) -> bool:
        if self.threshold is None:
            return False
        return self.failures.get(application, 0) >= self.threshold
