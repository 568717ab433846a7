"""Extent allocator and node spec behaviour."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.node import Extent, ExtentAllocator, NodeSpec, make_fleet
from repro.errors import ConfigError
from repro.units import GIB, MIB


class TestExtentAllocator:
    def test_first_fit_carves_from_the_front(self):
        alloc = ExtentAllocator(100)
        a = alloc.alloc(30)
        b = alloc.alloc(30)
        assert (a.offset, a.size) == (0, 30)
        assert (b.offset, b.size) == (30, 30)
        assert alloc.total_free == 40
        assert alloc.largest_free == 40

    def test_free_coalesces_both_neighbours(self):
        alloc = ExtentAllocator(100)
        a, b, c = alloc.alloc(20), alloc.alloc(20), alloc.alloc(20)
        alloc.free(a)
        alloc.free(c)
        # a-hole, b allocated, c-hole + tail: fragmented.
        assert alloc.largest_free == 60  # the c+tail hole
        assert alloc.total_free == 80
        assert alloc.fragmentation > 0.0
        alloc.free(b)
        # Everything freed: one maximal hole again.
        assert alloc.holes() == ((0, 100),)
        assert alloc.fragmentation == 0.0

    def test_fragmentation_blocks_large_allocations(self):
        alloc = ExtentAllocator(100)
        extents = [alloc.alloc(10) for _ in range(10)]
        for e in extents[::2]:  # free every other extent
            alloc.free(e)
        assert alloc.total_free == 50
        assert alloc.largest_free == 10
        assert alloc.alloc(20) is None  # free bytes exist, no hole fits
        assert alloc.fragmentation == pytest.approx(0.8)

    def test_double_free_is_rejected(self):
        alloc = ExtentAllocator(100)
        extent = alloc.alloc(10)
        alloc.free(extent)
        with pytest.raises(ConfigError, match="double free"):
            alloc.free(extent)

    def test_foreign_extent_is_rejected(self):
        alloc = ExtentAllocator(100)
        with pytest.raises(ConfigError, match="exceeds"):
            alloc.free(Extent(offset=90, size=20))

    @given(
        sizes=st.lists(st.integers(1, 40), min_size=1, max_size=30),
        free_order_seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_alloc_free_cycle_restores_one_hole(
        self, sizes, free_order_seed
    ):
        import random

        alloc = ExtentAllocator(2000)
        live = [e for e in (alloc.alloc(s) for s in sizes) if e is not None]
        assert alloc.total_free == 2000 - sum(e.size for e in live)
        random.Random(free_order_seed).shuffle(live)
        for e in live:
            alloc.free(e)
        assert alloc.holes() == ((0, 2000),)

    @given(
        ops=st.lists(
            st.tuples(st.booleans(), st.integers(0, 10**6)),
            min_size=1,
            max_size=80,
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_random_interleaving_invariants(self, ops):
        """Arbitrary alloc/free interleavings: live extents never
        overlap, extents + holes always tile [0, total) exactly, the
        fragmentation metric stays inside [0, 1), and freeing every
        survivor recovers the single maximal hole."""
        total = 1000
        alloc = ExtentAllocator(total)
        live: list = []
        for is_alloc, magnitude in ops:
            if is_alloc or not live:
                extent = alloc.alloc(magnitude % 120 + 1)
                if extent is not None:
                    live.append(extent)
            else:
                alloc.free(live.pop(magnitude % len(live)))
            spans = sorted(
                [(e.offset, e.size, "extent") for e in live]
                + [(o, s, "hole") for o, s in alloc.holes()]
            )
            cursor = 0
            for offset, size, _ in spans:
                assert offset == cursor, "overlap or gap in the tiling"
                cursor += size
            assert cursor == total
            assert 0.0 <= alloc.fragmentation < 1.0
            assert alloc.largest_free <= alloc.total_free
        for extent in live:
            alloc.free(extent)
        assert alloc.holes() == ((0, total),)
        assert alloc.fragmentation == 0.0

    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["alloc", "free", "reset"]),
                st.integers(0, 10**6),
            ),
            min_size=1,
            max_size=80,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_derived_fields_track_the_hole_list(self, ops):
        """``total_free``, ``largest_free`` and ``fragmentation`` are
        plain attributes kept up to date by every mutation: after each
        alloc, free or reset they equal a recomputation from
        :meth:`holes`, ``fragmentation`` exactly (the fleet mean sums
        these very floats into the journal)."""
        total = 1000
        alloc = ExtentAllocator(total)
        live: list = []
        for op, magnitude in ops:
            if op == "alloc" or (op == "free" and not live):
                extent = alloc.alloc(magnitude % 120 + 1)
                if extent is not None:
                    live.append(extent)
            elif op == "free":
                alloc.free(live.pop(magnitude % len(live)))
            else:
                alloc.reset()
                live.clear()
            sizes = [size for _, size in alloc.holes()]
            free = sum(sizes)
            largest = max(sizes, default=0)
            assert alloc.total_free == free
            assert alloc.largest_free == largest
            assert alloc.fragmentation == (
                0.0 if free == 0 else 1.0 - largest / free
            )

    def test_double_free_message_is_pinned(self):
        alloc = ExtentAllocator(100)
        extent = alloc.alloc(10)
        alloc.free(extent)
        with pytest.raises(
            ConfigError,
            match=r"double free: extent .* overlaps hole \(0,100\)",
        ):
            alloc.free(extent)

    def test_foreign_extent_message_is_pinned(self):
        alloc = ExtentAllocator(100)
        with pytest.raises(
            ConfigError, match=r"exceeds allocator size 100"
        ):
            alloc.free(Extent(offset=90, size=20))

    def test_reset_forgets_every_grant(self):
        alloc = ExtentAllocator(100)
        alloc.alloc(30)
        alloc.alloc(30)
        alloc.reset()
        assert alloc.holes() == ((0, 100),)
        assert alloc.fragmentation == 0.0


class TestNodeSpec:
    def test_budget_defaults_to_fast_tier_capacity(self):
        node = NodeSpec(name="n0")
        assert node.hbw_budget == node.machine.fast_tier.capacity

    def test_budget_above_capacity_is_rejected(self):
        with pytest.raises(ConfigError, match="exceeds"):
            NodeSpec(name="n0", hbw_budget=32 * GIB)

    def test_make_fleet_names_are_unique_and_ordered(self):
        fleet = make_fleet(3, 256 * MIB)
        assert [n.name for n in fleet] == ["node00", "node01", "node02"]
        assert all(n.hbw_budget == 256 * MIB for n in fleet)
