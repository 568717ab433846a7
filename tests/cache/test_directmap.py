"""Vectorised direct-mapped simulator vs the per-access LRU oracle
(a 1-way set-associative cache is a direct-mapped cache)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._oracles import SetAssociativeCache, access_stream_reference
from repro.cache.directmap import DirectMappedCache, simulate_direct_mapped
from repro.errors import ConfigError

CAPACITY = 64 * 64  # 64 lines


def _reference(addresses, capacity):
    ref = SetAssociativeCache(capacity, 64, ways=1)
    return access_stream_reference(ref, addresses)


class TestOneShot:
    def test_empty(self):
        out = simulate_direct_mapped(np.zeros(0, np.uint64), CAPACITY)
        assert out.size == 0

    def test_repeat_hits(self):
        addrs = np.array([0, 0, 0], dtype=np.uint64)
        assert simulate_direct_mapped(addrs, CAPACITY).tolist() == [
            False, True, True,
        ]

    def test_conflict_alternation(self):
        # Two lines mapping to the same set alternate -> all misses.
        a, b = 0, CAPACITY
        addrs = np.array([a, b, a, b], dtype=np.uint64)
        assert not simulate_direct_mapped(addrs, CAPACITY).any()

    def test_bad_geometry(self):
        with pytest.raises(ConfigError):
            simulate_direct_mapped(np.zeros(1, np.uint64), 100)

    def test_2d_rejected(self):
        with pytest.raises(ValueError):
            simulate_direct_mapped(np.zeros((2, 2), np.uint64), CAPACITY)

    @given(
        st.lists(st.integers(min_value=0, max_value=2**20), min_size=1,
                 max_size=300)
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_reference(self, raw):
        addrs = np.asarray(raw, dtype=np.uint64)
        fast = simulate_direct_mapped(addrs, CAPACITY)
        slow = _reference(addrs, CAPACITY)
        assert fast.tolist() == slow.tolist()


class TestStateful:
    def test_single_chunk_matches_oneshot(self):
        rng = np.random.default_rng(1)
        addrs = rng.integers(0, 2**18, 500).astype(np.uint64)
        cache = DirectMappedCache(CAPACITY)
        assert (
            cache.access_stream(addrs).tolist()
            == simulate_direct_mapped(addrs, CAPACITY).tolist()
        )

    @given(
        st.lists(st.integers(min_value=0, max_value=2**16), min_size=2,
                 max_size=200),
        st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=50, deadline=None)
    def test_chunked_equals_reference(self, raw, n_chunks):
        addrs = np.asarray(raw, dtype=np.uint64)
        cache = DirectMappedCache(CAPACITY)
        pieces = np.array_split(addrs, min(n_chunks, addrs.size))
        hits = np.concatenate([cache.access_stream(p) for p in pieces])
        ref = SetAssociativeCache(CAPACITY, 64, ways=1)
        assert hits.tolist() == access_stream_reference(ref, addrs).tolist()
        assert cache.stats == ref.stats

    def test_state_persists_between_chunks(self):
        cache = DirectMappedCache(CAPACITY)
        cache.access_stream(np.array([0], dtype=np.uint64))
        hits = cache.access_stream(np.array([0], dtype=np.uint64))
        assert hits.tolist() == [True]

    def test_flush(self):
        cache = DirectMappedCache(CAPACITY)
        cache.access(0)
        cache.flush()
        assert cache.access(0) is False

    def test_stats_accumulate(self):
        cache = DirectMappedCache(CAPACITY)
        cache.access_stream(np.array([0, 0, CAPACITY], dtype=np.uint64))
        assert cache.stats.accesses == 3
        assert cache.stats.hits == 1
        assert cache.stats.misses == 2

    def test_eviction_stats_match_reference(self):
        rng = np.random.default_rng(2)
        addrs = rng.integers(0, 2**14, 400).astype(np.uint64)
        cache = DirectMappedCache(CAPACITY)
        cache.access_stream(addrs)
        ref = SetAssociativeCache(CAPACITY, 64, ways=1)
        access_stream_reference(ref, addrs)
        assert cache.stats.misses == ref.stats.misses
        assert cache.stats.evictions == ref.stats.evictions
