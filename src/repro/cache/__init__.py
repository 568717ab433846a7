"""Cache simulators.

The KNL "cache mode" organises MCDRAM as a direct-mapped memory-side
cache, so the one cache model a workload runs is a vectorised
direct-mapped simulator: :func:`simulate_direct_mapped` for a cold
one-shot stream and :class:`DirectMappedCache` for chunked streams
that keep warm state. It drives the cache-mode baseline
(``machine/cachemode.py``) and STREAM (Fig. 1). The per-access LRU
it is tested against lives in :mod:`repro._oracles.cache`.
"""

from repro.cache.stats import CacheStats
from repro.cache.directmap import DirectMappedCache, simulate_direct_mapped

__all__ = [
    "CacheStats",
    "DirectMappedCache",
    "simulate_direct_mapped",
]
