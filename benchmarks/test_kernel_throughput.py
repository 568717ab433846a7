"""Kernel throughput: the vectorised direct-mapped cache kernel
against the per-access LRU loop in :mod:`repro._oracles`.

Both sides run the same fixed-seed hot/cold stream (the paper's own
premise: 95% of accesses land in a 256 KiB hot region, the rest
anywhere in 512 MiB) and must agree exactly; the kernel must not lose
to its loop. Equality itself is property-tested in
``tests/cache/test_directmap.py``; this file only watches speed.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro._oracles import SetAssociativeCache, access_stream_reference
from repro.cache.directmap import DirectMappedCache
from repro.reporting.tables import AsciiTable
from repro.units import KIB, MIB

#: An 8 MiB cache: large enough that the sort-and-shift kernel runs
#: thousands of sets wide.
LLC_CAPACITY = 8 * MIB


def _hotcold(n: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    hot = rng.integers(0, 256 * KIB, size=n, dtype=np.int64)
    cold = rng.integers(0, 512 * MIB, size=n, dtype=np.int64)
    return np.where(rng.random(n) < 0.95, hot, cold).astype(np.uint64)


#: stage -> (stream length, per-access oracle, vectorised kernel).
STAGES = {
    "cache_directmap": (
        200_000,
        lambda a: access_stream_reference(
            SetAssociativeCache(LLC_CAPACITY, 64, ways=1), a
        ),
        lambda a: DirectMappedCache(LLC_CAPACITY, 64).access_stream(a),
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
    for stage, speedup in speedups.items():
        assert speedup > 1.0, stage
