"""Set-associative LRU cache: the per-access correctness oracle."""

import numpy as np
import pytest

from repro._oracles import SetAssociativeCache, access_stream_reference
from repro.errors import ConfigError


class TestGeometry:
    def test_valid(self):
        c = SetAssociativeCache(capacity=64 * 1024, line_size=64, ways=8)
        assert c.n_sets == 128

    def test_direct_mapped(self):
        c = SetAssociativeCache(capacity=4096, line_size=64, ways=1)
        assert c.n_sets == 64

    def test_fully_associative(self):
        c = SetAssociativeCache(capacity=4096, line_size=64, ways=64)
        assert c.n_sets == 1

    def test_bad_line_size(self):
        with pytest.raises(ConfigError):
            SetAssociativeCache(4096, line_size=48)

    def test_capacity_not_multiple(self):
        with pytest.raises(ConfigError):
            SetAssociativeCache(4000, line_size=64)

    def test_ways_not_dividing(self):
        with pytest.raises(ConfigError):
            SetAssociativeCache(4096, line_size=64, ways=3)

    def test_non_pow2_sets(self):
        with pytest.raises(ConfigError):
            SetAssociativeCache(3 * 4096, line_size=64, ways=4)


class TestBehaviour:
    def test_cold_miss_then_hit(self):
        c = SetAssociativeCache(4096, 64, 2)
        assert c.access(0x1000) is False
        assert c.access(0x1000) is True

    def test_same_line_different_bytes_hit(self):
        c = SetAssociativeCache(4096, 64, 2)
        c.access(0x1000)
        assert c.access(0x103F) is True

    def test_adjacent_lines_distinct(self):
        c = SetAssociativeCache(4096, 64, 2)
        c.access(0x1000)
        assert c.access(0x1040) is False

    def test_lru_eviction(self):
        # 2-way set: fill with A, B; touch A; insert C -> evicts B.
        c = SetAssociativeCache(2 * 64, 64, 2)  # one set, two ways
        a, b, d = 0x0, 0x1000, 0x2000
        c.access(a)
        c.access(b)
        c.access(a)       # A most recent
        c.access(d)       # evicts B (LRU)
        assert c.contains(a)
        assert not c.contains(b)
        assert c.contains(d)

    def test_contains_does_not_update_lru(self):
        c = SetAssociativeCache(2 * 64, 64, 2)
        a, b, d = 0x0, 0x1000, 0x2000
        c.access(a)
        c.access(b)
        c.contains(a)  # peek must NOT refresh A
        c.access(d)    # evicts A (still LRU)
        assert not c.contains(a)

    def test_flush_keeps_stats(self):
        c = SetAssociativeCache(4096, 64, 2)
        c.access(0x0)
        c.flush()
        assert c.resident_lines == 0
        assert c.stats.accesses == 1
        assert c.access(0x0) is False

    def test_stream_vector(self):
        c = SetAssociativeCache(4096, 64, 2)
        addrs = np.array([0, 0, 64, 0], dtype=np.uint64)
        hits = access_stream_reference(c, addrs)
        assert hits.tolist() == [False, True, False, True]

    def test_eviction_counting(self):
        c = SetAssociativeCache(64, 64, 1)  # single line
        c.access(0x0)
        c.access(0x1000)  # evicts
        assert c.stats.evictions == 1

    def test_capacity_respected(self):
        c = SetAssociativeCache(8 * 64, 64, 8)
        for i in range(100):
            c.access(i * 64)
        assert c.resident_lines <= 8


class TestReferenceStream:
    def test_iterables_accepted(self):
        """A one-shot generator is streamed once, not materialised twice."""
        c = SetAssociativeCache(8 * 64, 64, 2)
        hits = access_stream_reference(c, (a * 64 for a in [1, 1, 2]))
        assert hits.tolist() == [False, True, False]

    def test_non_1d_rejected(self):
        c = SetAssociativeCache(8 * 64, 64, 2)
        with pytest.raises(ValueError, match="1-D"):
            access_stream_reference(c, np.zeros((2, 2), dtype=np.uint64))
