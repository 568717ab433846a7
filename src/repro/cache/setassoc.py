"""Reference set-associative LRU cache simulator.

This is the correctness reference: an N-way set-associative cache with
true-LRU replacement, processed access by access. The vectorised
kernels (:mod:`repro.cache.vectorkernels`), the direct-mapped
simulator and the hierarchy are all validated against it in the test
suite (a 1-way set-associative cache must agree exactly with the
direct-mapped model).

:meth:`SetAssociativeCache.access_stream` runs on the vectorised LRU
kernel (exporting the per-set LRU lists into the kernel's dense state
matrix and importing the result back), so bulk callers get NumPy
throughput while :meth:`SetAssociativeCache.access` stays the
per-access oracle (:func:`repro._oracles.access_stream_reference`
streams through it for property tests and the benchmark baseline).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.cache.stats import CacheStats
from repro.cache.vectorkernels import (
    VectorSetAssociativeCache,
    as_address_array,
)
from repro.errors import ConfigError


def _is_pow2(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


class SetAssociativeCache:
    """An N-way set-associative cache with LRU replacement.

    Parameters
    ----------
    capacity:
        Total cache size in bytes.
    line_size:
        Cache-line size in bytes (power of two).
    ways:
        Associativity. ``ways=1`` is a direct-mapped cache;
        ``ways == capacity // line_size`` is fully associative.
    """

    def __init__(self, capacity: int, line_size: int = 64, ways: int = 8) -> None:
        if not _is_pow2(line_size):
            raise ConfigError(f"line size must be a power of two, got {line_size}")
        if capacity <= 0 or capacity % line_size != 0:
            raise ConfigError(
                f"capacity {capacity} must be a positive multiple of the "
                f"line size {line_size}"
            )
        n_lines = capacity // line_size
        if ways < 1 or n_lines % ways != 0:
            raise ConfigError(
                f"{ways}-way associativity does not divide {n_lines} lines"
            )
        self.capacity = capacity
        self.line_size = line_size
        self.ways = ways
        self.n_sets = n_lines // ways
        if not _is_pow2(self.n_sets):
            raise ConfigError(
                f"number of sets must be a power of two, got {self.n_sets}"
            )
        self._line_bits = line_size.bit_length() - 1
        self._set_mask = self.n_sets - 1
        # Per set: list of tags in LRU order (front = most recent).
        self._sets: list[list[int]] = [[] for _ in range(self.n_sets)]
        self.stats = CacheStats()

    def _locate(self, address: int) -> tuple[int, int]:
        line = address >> self._line_bits
        return line & self._set_mask, line >> (self.n_sets.bit_length() - 1)

    def access(self, address: int) -> bool:
        """Access one byte address. Returns True on hit."""
        set_idx, tag = self._locate(address)
        ways = self._sets[set_idx]
        if tag in ways:
            ways.remove(tag)
            ways.insert(0, tag)
            self.stats.record_hit()
            return True
        evicted = len(ways) >= self.ways
        if evicted:
            ways.pop()
        ways.insert(0, tag)
        self.stats.record_miss(evicted_valid=evicted)
        return False

    def access_stream(self, addresses: Iterable[int] | np.ndarray) -> np.ndarray:
        """Access a sequence of addresses; returns a boolean hit vector.

        Runs on the vectorised LRU kernel: the per-set LRU lists are
        exported into the kernel's dense state matrix, the whole chunk
        is replayed in NumPy, and the updated state is imported back —
        bit-for-bit identical to calling :meth:`access` per element
        (the equivalence the property tests assert), at a fraction of
        the cost.
        """
        addresses = as_address_array(addresses)
        if addresses.size == 0:
            return np.zeros(0, dtype=bool)
        kernel = VectorSetAssociativeCache(
            self.capacity, self.line_size, self.ways
        )
        kernel.import_sets(self._sets)
        hits = kernel.access_stream(addresses)
        self._sets = kernel.export_sets()
        self.stats.accesses += kernel.stats.accesses
        self.stats.hits += kernel.stats.hits
        self.stats.misses += kernel.stats.misses
        self.stats.evictions += kernel.stats.evictions
        return hits

    def contains(self, address: int) -> bool:
        """True if the line holding ``address`` is resident (no update)."""
        set_idx, tag = self._locate(address)
        return tag in self._sets[set_idx]

    def flush(self) -> None:
        """Invalidate all lines, keep statistics."""
        self._sets = [[] for _ in range(self.n_sets)]

    @property
    def resident_lines(self) -> int:
        return sum(len(s) for s in self._sets)
