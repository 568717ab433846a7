"""Kernel throughput: each vectorised cache kernel against its
per-access oracle in :mod:`repro._oracles`.

Both sides run the same fixed-seed hot/cold stream (the paper's own
premise: 95% of accesses land in a 256 KiB hot region, the rest
anywhere in 512 MiB) and must agree exactly. The set-associative LLC
kernel must beat its loop by more than 2x; no cache kernel may lose to
its loop outright. Equality itself is property-tested in
``tests/cache/test_vectorkernels.py``; this file only watches speed.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro._oracles import access_stream_reference, feed_reference
from repro.cache.directmap import DirectMappedCache
from repro.cache.hierarchy import CacheHierarchy, CacheLevelSpec
from repro.cache.setassoc import SetAssociativeCache
from repro.cache.vectorkernels import VectorSetAssociativeCache
from repro.reporting.tables import AsciiTable
from repro.units import KIB, MIB

#: An 8 MiB 16-way LLC: large enough that the vectorised rounds run
#: thousands of sets wide.
LLC_CAPACITY = 8 * MIB
LLC_WAYS = 16


def _hotcold(n: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    hot = rng.integers(0, 256 * KIB, size=n, dtype=np.int64)
    cold = rng.integers(0, 512 * MIB, size=n, dtype=np.int64)
    return np.where(rng.random(n) < 0.95, hot, cold).astype(np.uint64)


def _hierarchy() -> CacheHierarchy:
    return CacheHierarchy(
        l1=CacheLevelSpec(capacity=32 * KIB, line_size=64, ways=8),
        llc=CacheLevelSpec(capacity=512 * KIB, line_size=64, ways=16),
    )


#: stage -> (stream length, per-access oracle, vectorised kernel).
STAGES = {
    "cache_setassoc": (
        200_000,
        lambda a: access_stream_reference(
            SetAssociativeCache(LLC_CAPACITY, 64, LLC_WAYS), a
        ),
        lambda a: VectorSetAssociativeCache(
            LLC_CAPACITY, 64, LLC_WAYS
        ).access_stream(a),
    ),
    "cache_directmap": (
        200_000,
        lambda a: access_stream_reference(
            SetAssociativeCache(LLC_CAPACITY, 64, ways=1), a
        ),
        lambda a: DirectMappedCache(LLC_CAPACITY, 64).access_stream(a),
    ),
    "cache_hierarchy": (
        20_000,
        lambda a: feed_reference(_hierarchy(), a),
        lambda a: _hierarchy().feed(a),
    ),
}


def _best_of(fn, addresses, repeats: int) -> tuple[float, np.ndarray]:
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn(addresses)
        best = min(best, time.perf_counter() - start)
    return best, result


def _time_stages() -> dict[str, tuple[int, float, float]]:
    timings = {}
    for stage, (n, oracle, kernel) in STAGES.items():
        addresses = _hotcold(n)
        ref_seconds, expected = _best_of(oracle, addresses, 1)
        vec_seconds, got = _best_of(kernel, addresses, 7)
        assert np.array_equal(got, expected), stage
        timings[stage] = (n, ref_seconds, vec_seconds)
    return timings


@pytest.mark.figure("harness")
def test_kernel_throughput(benchmark):
    timings = benchmark.pedantic(_time_stages, rounds=1, iterations=1)

    table = AsciiTable(["stage", "n", "throughput/s", "speedup"])
    for stage, (n, ref_seconds, vec_seconds) in timings.items():
        table.add_row(stage, n, n / vec_seconds, ref_seconds / vec_seconds)
    print("\n== Kernel throughput (hot/cold stream) ==")
    print(table.render())

    speedups = {
        stage: ref_seconds / vec_seconds
        for stage, (_, ref_seconds, vec_seconds) in timings.items()
    }
    assert speedups["cache_setassoc"] > 2.0
    for stage, speedup in speedups.items():
        assert speedup > 1.0, stage
