"""Vectorised LRU kernel vs the per-access oracle.

The batch kernel must be *bit-for-bit* the per-access model: same hit
vector, same statistics, same internal LRU state after any stream cut
any way. These properties are what lets ``access_stream`` run on the
kernel while ``access`` stays the ground truth.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._oracles import access_stream_reference, feed_reference
from repro.cache.directmap import DirectMappedCache
from repro.cache.hierarchy import CacheHierarchy, CacheLevelSpec
from repro.cache.setassoc import SetAssociativeCache
from repro.cache.vectorkernels import (
    VectorSetAssociativeCache,
    as_address_array,
    simulate_set_associative,
)
from repro.units import KIB


# -- strategies -------------------------------------------------------------

geometries = st.tuples(
    st.integers(min_value=1, max_value=64),  # capacity in lines
    st.sampled_from([1, 2, 4, 8]),  # ways
).filter(lambda g: g[0] % g[1] == 0 and ((g[0] // g[1]) & (g[0] // g[1] - 1)) == 0)

streams = st.lists(
    st.integers(min_value=0, max_value=64 * KIB - 1),
    min_size=0,
    max_size=300,
)


def _stats_tuple(cache):
    s = cache.stats
    return (s.accesses, s.hits, s.misses, s.evictions)


# -- the core equivalence property ------------------------------------------


class TestKernelEquivalence:
    @given(geometries, streams)
    @settings(max_examples=120, deadline=None)
    def test_stream_matches_oracle(self, geometry, addresses):
        cap_lines, ways = geometry
        ref = SetAssociativeCache(cap_lines * 64, 64, ways)
        vec = VectorSetAssociativeCache(cap_lines * 64, 64, ways)
        expected = np.array(
            [ref.access(a) for a in addresses], dtype=bool
        )
        got = vec.access_stream(addresses)
        assert np.array_equal(got, expected)
        assert _stats_tuple(vec) == _stats_tuple(ref)
        assert vec.export_sets() == ref._sets

    @given(
        geometries,
        streams,
        st.lists(st.integers(min_value=0, max_value=300), min_size=1,
                 max_size=6),
    )
    @settings(max_examples=80, deadline=None)
    def test_chunking_is_invisible(self, geometry, addresses, cuts):
        """Feeding the stream in arbitrary chunks equals one shot —
        the warm state carried between chunks is exact."""
        cap_lines, ways = geometry
        whole = VectorSetAssociativeCache(cap_lines * 64, 64, ways)
        expected = whole.access_stream(addresses)

        chunked = VectorSetAssociativeCache(cap_lines * 64, 64, ways)
        bounds = sorted({min(c, len(addresses)) for c in cuts})
        got = []
        start = 0
        for cut in bounds + [len(addresses)]:
            got.append(chunked.access_stream(addresses[start:cut]))
            start = cut
        assert np.array_equal(np.concatenate(got) if got else
                              np.zeros(0, bool), expected)
        assert _stats_tuple(chunked) == _stats_tuple(whole)
        assert chunked.export_sets() == whole.export_sets()

    @given(streams)
    @settings(max_examples=60, deadline=None)
    def test_one_way_matches_direct_mapped(self, addresses):
        """A 1-way set-associative cache IS a direct-mapped cache."""
        vec = VectorSetAssociativeCache(16 * 64, 64, ways=1)
        dm = DirectMappedCache(16 * 64, 64)
        a = np.asarray(addresses, dtype=np.uint64)
        assert np.array_equal(vec.access_stream(a), dm.access_stream(a))
        assert _stats_tuple(vec) == _stats_tuple(dm)

    @given(geometries, streams)
    @settings(max_examples=60, deadline=None)
    def test_one_shot_helper(self, geometry, addresses):
        cap_lines, ways = geometry
        ref = SetAssociativeCache(cap_lines * 64, 64, ways)
        hits = simulate_set_associative(addresses, cap_lines * 64, 64, ways)
        expected = np.array(
            [ref.access(a) for a in addresses], dtype=bool
        )
        assert np.array_equal(hits, expected)

    def test_full_range_addresses(self):
        """Top-bit-set 64-bit addresses survive the tag arithmetic."""
        rng = np.random.default_rng(7)
        addrs = rng.integers(0, 2**63, size=500, dtype=np.int64).astype(
            np.uint64
        ) | np.uint64(1 << 63)
        ref = SetAssociativeCache(64 * 64, 64, 4)
        vec = VectorSetAssociativeCache(64 * 64, 64, 4)
        expected = np.array([ref.access(int(a)) for a in addrs], dtype=bool)
        assert np.array_equal(vec.access_stream(addrs), expected)
        assert vec.export_sets() == ref._sets

    def test_stable_argsort_fallback(self, monkeypatch):
        """When set+position bits blow the composite-key budget the
        kernel must switch to the stable argsort and stay exact. A
        2**54-set cache is not buildable, so shrink the budget."""
        from repro.cache import vectorkernels

        monkeypatch.setattr(vectorkernels, "COMPOSITE_KEY_BITS", 0)
        rng = np.random.default_rng(11)
        addrs = rng.integers(0, 64 * KIB, size=400, dtype=np.int64)
        ref = SetAssociativeCache(32 * 64, 64, 4)
        vec = VectorSetAssociativeCache(32 * 64, 64, 4)
        expected = np.array([ref.access(int(a)) for a in addrs], dtype=bool)
        assert np.array_equal(vec.access_stream(addrs), expected)
        assert _stats_tuple(vec) == _stats_tuple(ref)
        assert vec.export_sets() == ref._sets


class TestAccessStreamDelegation:
    """SetAssociativeCache.access_stream rides the kernel but must
    remain indistinguishable from the reference loop."""

    @given(geometries, streams)
    @settings(max_examples=60, deadline=None)
    def test_stream_equals_reference(self, geometry, addresses):
        cap_lines, ways = geometry
        fast = SetAssociativeCache(cap_lines * 64, 64, ways)
        slow = SetAssociativeCache(cap_lines * 64, 64, ways)
        a = np.asarray(addresses, dtype=np.uint64)
        assert np.array_equal(
            fast.access_stream(a), access_stream_reference(slow, a)
        )
        assert _stats_tuple(fast) == _stats_tuple(slow)
        assert fast._sets == slow._sets

    def test_warm_state_is_respected(self):
        """Kernel runs must see state left by per-access calls and
        leave state per-access calls can continue from."""
        cache = SetAssociativeCache(8 * 64, 64, 2)
        assert cache.access(0) is False
        assert cache.access(0) is True
        hits = cache.access_stream([0, 64, 0])
        assert hits.tolist() == [True, False, True]
        assert cache.access(64) is True

    def test_iterables_accepted(self):
        """Regression: generators used to be double-materialised (and
        plain lists round-tripped through .tolist())."""
        cache = SetAssociativeCache(8 * 64, 64, 2)
        hits = cache.access_stream(a * 64 for a in [1, 1, 2])
        assert hits.tolist() == [False, True, False]

    def test_non_1d_rejected(self):
        cache = SetAssociativeCache(8 * 64, 64, 2)
        with pytest.raises(ValueError, match="1-D"):
            cache.access_stream(np.zeros((2, 2), dtype=np.uint64))
        with pytest.raises(ValueError, match="1-D"):
            access_stream_reference(
                cache, np.zeros((2, 2), dtype=np.uint64)
            )


class TestHierarchyEquivalence:
    @given(streams)
    @settings(max_examples=60, deadline=None)
    def test_feed_matches_reference(self, addresses):
        spec = dict(
            l1=CacheLevelSpec(capacity=4 * 64, line_size=64, ways=2),
            llc=CacheLevelSpec(capacity=32 * 64, line_size=64, ways=4),
        )
        fast = CacheHierarchy(**spec)
        slow = CacheHierarchy(**spec)
        a = np.asarray(addresses, dtype=np.uint64)
        assert np.array_equal(fast.feed(a), feed_reference(slow, a))
        assert fast.l1_stats == slow.l1_stats
        assert fast.llc_stats == slow.llc_stats


class TestAsAddressArray:
    def test_ndarray_passthrough_no_copy(self):
        a = np.arange(4, dtype=np.uint64)
        out = as_address_array(a)
        assert out is a or out.base is a

    def test_generator_single_pass(self):
        """A one-shot iterator must survive: no double materialisation."""
        out = as_address_array(iter([1, 2, 3]))
        assert out.tolist() == [1, 2, 3]
        assert out.dtype == np.uint64

    def test_sized_iterable(self):
        out = as_address_array(range(5))
        assert out.tolist() == [0, 1, 2, 3, 4]

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="1-D"):
            as_address_array(np.zeros((2, 3)))
