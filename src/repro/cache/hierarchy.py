"""Two-level cache hierarchy (L1 -> L2/LLC).

On KNL the L2 is the last-level cache; PEBS there tracks L2 load
references and misses (Section III, Step 1). The hierarchy filters an
access stream through an L1 model and forwards L1 misses to the LLC;
the LLC miss stream is what the PEBS sampler draws from.

Both levels keep full set-associative LRU semantics (KNL's L2 is
16-way) but stream through the vectorised LRU kernel, so feeding a
multi-million-access stream costs NumPy time, not Python time;
:func:`repro._oracles.feed_reference` keeps the per-access cascade
as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cache.setassoc import SetAssociativeCache
from repro.cache.stats import CacheStats
from repro.errors import ConfigError
from repro.units import KIB, MIB


@dataclass(frozen=True, slots=True)
class CacheLevelSpec:
    """Geometry of one cache level."""

    capacity: int
    line_size: int = 64
    ways: int = 8


#: KNL per-tile geometry scaled per-thread: 32 KiB 8-way L1D and a
#: 1 MiB 16-way L2 shared by two cores. Simulated application streams
#: are per-rank, so the per-rank slice of the shared L2 is what the
#: stream sees.
KNL_L1 = CacheLevelSpec(capacity=32 * KIB, line_size=64, ways=8)
KNL_L2 = CacheLevelSpec(capacity=512 * KIB, line_size=64, ways=16)


class CacheHierarchy:
    """An inclusive L1 -> LLC filter for address streams.

    :meth:`feed` returns the indices of accesses that missed the LLC —
    exactly the events main memory (and therefore the placement
    decision) has to serve.
    """

    def __init__(
        self,
        l1: CacheLevelSpec = KNL_L1,
        llc: CacheLevelSpec = KNL_L2,
    ) -> None:
        if l1.capacity >= llc.capacity:
            raise ConfigError(
                f"L1 ({l1.capacity}) must be smaller than the LLC "
                f"({llc.capacity})"
            )
        if l1.line_size != llc.line_size:
            raise ConfigError("mixed line sizes are not supported")
        self.l1 = SetAssociativeCache(l1.capacity, l1.line_size, l1.ways)
        self.llc = SetAssociativeCache(llc.capacity, llc.line_size, llc.ways)

    def feed(self, addresses: np.ndarray) -> np.ndarray:
        """Run a stream through L1 then LLC.

        Returns the positions (indices into ``addresses``) whose access
        missed in the LLC.

        Both levels run on the vectorised LRU kernel: the LLC only sees
        the subsequence of L1 misses, in program order, which is
        exactly what the per-access cascade produces — so the result
        (and both levels' statistics) is bit-for-bit identical to
        filtering one access at a time.
        """
        addresses = np.asarray(addresses, dtype=np.uint64)
        if addresses.size == 0:
            return np.zeros(0, dtype=np.int64)
        l1_hits = self.l1.access_stream(addresses)
        l1_miss_positions = np.flatnonzero(~l1_hits)
        if l1_miss_positions.size == 0:
            return np.zeros(0, dtype=np.int64)
        llc_hits = self.llc.access_stream(addresses[l1_miss_positions])
        return l1_miss_positions[~llc_hits]

    @property
    def l1_stats(self) -> CacheStats:
        return self.l1.stats

    @property
    def llc_stats(self) -> CacheStats:
        return self.llc.stats
