"""PEBS-style period sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._oracles import sample_reference
from repro.pebs.sampler import PebsSampler


def _chunk(n, t0=0.0):
    addrs = np.arange(n, dtype=np.uint64) * 64
    times = t0 + np.arange(n, dtype=float)
    return addrs, times


class TestValidation:
    def test_period_must_be_positive(self):
        with pytest.raises(ValueError):
            PebsSampler(period=0)

    def test_phase_range(self):
        with pytest.raises(ValueError):
            PebsSampler(period=5, phase=5)

    def test_mismatched_lengths(self):
        s = PebsSampler(period=3)
        with pytest.raises(ValueError):
            s.sample_chunk_arrays(np.zeros(3, np.uint64), np.zeros(2))

    def test_non_1d_addresses_rejected(self):
        # Regression: a (2, 3) address array used to be accepted and
        # sampled along flattened order silently.
        s = PebsSampler(period=3)
        with pytest.raises(ValueError, match="1-D"):
            s.sample_chunk_arrays(
                np.zeros((2, 3), np.uint64), np.zeros((2, 3))
            )

    def test_mismatched_latencies(self):
        s = PebsSampler(period=3)
        with pytest.raises(ValueError, match="latencies"):
            s.sample_chunk_arrays(
                np.zeros(3, np.uint64), np.zeros(3), np.zeros(2)
            )

    def test_negative_chunk_length_rejected(self):
        s = PebsSampler(period=3)
        with pytest.raises(ValueError, match="negative"):
            s.sample_positions(-1)


class TestSampling:
    def test_every_period_th(self):
        s = PebsSampler(period=3)
        addrs, times = _chunk(9)
        picked, _, _ = s.sample_chunk_arrays(addrs, times)
        assert picked.tolist() == [2 * 64, 5 * 64, 8 * 64]

    def test_period_one_samples_everything(self):
        s = PebsSampler(period=1)
        picked, _, _ = s.sample_chunk_arrays(*_chunk(5))
        assert picked.size == 5

    def test_phase_shifts_first_sample(self):
        s = PebsSampler(period=4, phase=2)
        picked, _, _ = s.sample_chunk_arrays(*_chunk(4))
        assert int(picked[0]) == 1 * 64

    def test_empty_chunk(self):
        s = PebsSampler(period=3)
        picked, times, latencies = s.sample_chunk_arrays(*_chunk(0))
        assert picked.size == times.size == 0
        assert latencies is None

    def test_times_carried_through(self):
        s = PebsSampler(period=2)
        _, times, _ = s.sample_chunk_arrays(*_chunk(4, t0=10.0))
        assert times.tolist() == [11.0, 13.0]

    def test_counters(self):
        s = PebsSampler(period=5)
        s.sample_chunk_arrays(*_chunk(12))
        assert s.events_seen == 12
        assert s.samples_taken == 2
        assert s.effective_rate == pytest.approx(2 / 12)


class TestChunkBoundaries:
    @given(
        st.integers(min_value=1, max_value=37),
        st.lists(st.integers(min_value=0, max_value=25), min_size=1,
                 max_size=20),
    )
    @settings(max_examples=80, deadline=None)
    def test_chunking_invariant(self, period, chunk_sizes):
        """Splitting a stream into chunks must sample the exact same
        positions as feeding it at once."""
        total = sum(chunk_sizes)
        whole = PebsSampler(period=period)
        addrs, times = _chunk(total)
        expected = whole.sample_chunk_arrays(addrs, times)[0].tolist()

        chunked = PebsSampler(period=period)
        got = []
        start = 0
        for size in chunk_sizes:
            a, t = addrs[start : start + size], times[start : start + size]
            got.extend(chunked.sample_chunk_arrays(a, t)[0].tolist())
            start += size
        assert got == expected

    @given(st.integers(min_value=1, max_value=50),
           st.integers(min_value=0, max_value=500))
    @settings(max_examples=80, deadline=None)
    def test_sample_count(self, period, n):
        s = PebsSampler(period=period)
        picked, _, _ = s.sample_chunk_arrays(*_chunk(n))
        assert picked.size == n // period

    @given(
        st.integers(min_value=1, max_value=37),
        st.integers(min_value=0, max_value=36),
        st.lists(st.integers(min_value=0, max_value=25), min_size=1,
                 max_size=20),
    )
    @settings(max_examples=80, deadline=None)
    def test_positions_countdown_invariant(self, period, phase, chunk_sizes):
        """The vectorised pick core must sample the exact same stream
        positions regardless of how the stream is chunked."""
        phase = phase % period
        total = sum(chunk_sizes)
        whole = PebsSampler(period=period, phase=phase)
        expected = whole.sample_positions(total).tolist()

        chunked = PebsSampler(period=period, phase=phase)
        got = []
        start = 0
        for size in chunk_sizes:
            got.extend(
                int(p) + start for p in chunked.sample_positions(size)
            )
            start += size
        assert got == expected
        assert chunked.events_seen == whole.events_seen
        assert chunked.samples_taken == whole.samples_taken

    @given(st.integers(min_value=1, max_value=23),
           st.integers(min_value=0, max_value=200))
    @settings(max_examples=60, deadline=None)
    def test_arrays_match_countdown_oracle(self, period, n):
        """sample_chunk_arrays picks every column at the positions the
        per-event countdown loop picks."""
        addrs, times = _chunk(n)
        lats = np.arange(n, dtype=np.int64) + 100
        picks = sample_reference(period, addrs)
        a, t, c = PebsSampler(period=period).sample_chunk_arrays(
            addrs, times, lats
        )
        assert a.tolist() == addrs[picks].tolist()
        assert t.tolist() == times[picks].tolist()
        assert c.tolist() == lats[picks].tolist()
