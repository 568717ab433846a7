"""Per-access cache replays the vectorised LRU kernels are tested
against: :meth:`SetAssociativeCache.access` one address at a time,
and the L1 -> LLC cascade one access at a time."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.cache.hierarchy import CacheHierarchy
from repro.cache.setassoc import SetAssociativeCache


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


def feed_reference(
    hierarchy: CacheHierarchy, addresses: np.ndarray
) -> np.ndarray:
    """Per-access cascade through ``hierarchy``; returns the positions
    whose access missed the LLC."""
    addresses = np.asarray(addresses, dtype=np.uint64)
    llc_miss_positions: list[int] = []
    for i, addr in enumerate(addresses.tolist()):
        if hierarchy.l1.access(addr):
            continue
        if not hierarchy.llc.access(addr):
            llc_miss_positions.append(i)
    return np.asarray(llc_miss_positions, dtype=np.int64)
