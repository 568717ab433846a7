"""Per-access LRU cache the direct-mapped kernel is tested against.

:class:`SetAssociativeCache` is an N-way set-associative cache with
true-LRU replacement, processed one address at a time; with
``ways=1`` it is a direct-mapped cache, which is how the property
tests prove :class:`repro.cache.DirectMappedCache` and
:func:`repro.cache.simulate_direct_mapped` exact.
:func:`access_stream_reference` streams addresses through it.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.cache.stats import CacheStats
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


def access_stream_reference(
    cache: SetAssociativeCache, addresses: Iterable[int] | np.ndarray
) -> np.ndarray:
    """Per-access stream path of ``cache``; returns the hit vector.
    Accepts any iterable without materialising intermediate lists."""
    if isinstance(addresses, np.ndarray):
        if addresses.ndim != 1:
            raise ValueError(
                f"addresses must be 1-D, got shape {addresses.shape}"
            )
        return np.fromiter(
            (cache.access(int(a)) for a in addresses),
            dtype=bool,
            count=addresses.size,
        )
    try:
        count = len(addresses)  # type: ignore[arg-type]
    except TypeError:
        return np.array([cache.access(int(a)) for a in addresses], dtype=bool)
    return np.fromiter(
        (cache.access(int(a)) for a in addresses), dtype=bool, count=count
    )
