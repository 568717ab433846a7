"""Period-based sampling of an LLC-miss stream.

The paper samples "one out of every 37,589 L2 cache misses" (Section
IV-A) — a prime-ish period chosen so sampling does not phase-lock with
loop structure. The sampler reproduces that: a countdown decremented
per miss; on overflow the miss is recorded and the countdown reset.
Vectorised: for a chunk of ``n`` misses the recorded positions are an
arithmetic progression determined by the carried-in countdown.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class PebsSampler:
    """Samples every ``period``-th event of a miss stream.

    Parameters
    ----------
    period:
        Sampling period (1 sample per ``period`` misses). The paper
        uses 37,589 on hardware; simulated streams are far shorter, so
        experiments typically use a small prime (e.g. 7).
    phase:
        Initial countdown offset, so replicated ranks do not all
        sample the same stream positions.
    """

    period: int
    phase: int = 0

    def __post_init__(self) -> None:
        if self.period < 1:
            raise ValueError(f"period must be >= 1, got {self.period}")
        if not 0 <= self.phase < self.period:
            raise ValueError(
                f"phase must be in [0, {self.period}), got {self.phase}"
            )
        self._countdown = self.period - self.phase
        self.events_seen = 0
        self.samples_taken = 0

    def sample_positions(self, n_events: int) -> np.ndarray:
        """Advance the countdown over ``n_events`` misses; returns the
        sampled positions (indices into the chunk) as an int64 array.

        This is the vectorised core: the sampled positions of a chunk
        are an arithmetic progression fixed by the carried-in
        countdown, so no per-event work is ever done.
        """
        if n_events < 0:
            raise ValueError(f"negative chunk length: {n_events}")
        if n_events == 0:
            return np.zeros(0, dtype=np.int64)
        first = self._countdown - 1  # index of the first sampled miss
        picks = np.arange(first, n_events, self.period, dtype=np.int64)
        if picks.size:
            consumed_after_last = n_events - (int(picks[-1]) + 1)
            self._countdown = self.period - consumed_after_last
        else:
            self._countdown -= n_events
        self.events_seen += n_events
        self.samples_taken += int(picks.size)
        return picks

    def sample_chunk_arrays(
        self,
        addresses: np.ndarray,
        times: np.ndarray,
        latencies: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """Feed a chunk of misses; returns the sampled columns as
        arrays ``(addresses, times, latencies-or-None)``.

        ``latencies`` (cycles per miss) is optional — pass it when the
        modelled PMU is a Xeon-style one that reports access cost. The
        whole path (sampler -> tracer -> trace) stays in NumPy.
        """
        addresses = np.asarray(addresses)
        if addresses.ndim != 1:
            raise ValueError(
                f"addresses must be 1-D, got shape {addresses.shape}"
            )
        times = np.asarray(times, dtype=float)
        if addresses.shape != times.shape:
            raise ValueError("addresses and times must have equal length")
        if latencies is not None:
            latencies = np.asarray(latencies)
            if latencies.shape != addresses.shape:
                raise ValueError("latencies must match addresses")
        picks = self.sample_positions(addresses.size)
        return (
            addresses[picks],
            times[picks],
            latencies[picks] if latencies is not None else None,
        )

    @property
    def effective_rate(self) -> float:
        """Observed sampling rate (samples per event)."""
        if self.events_seen == 0:
            return 0.0
        return self.samples_taken / self.events_seen
