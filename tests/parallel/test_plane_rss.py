"""The shared trace plane keeps pool workers' private memory flat.

Four forked probes each run one grid cell of a profile-heavy app
privately (every probe profiles on its own), and four run it attached
to one published plane (zero-copy views of the parent's profile). Each
probe reports how much its private RSS grew over the cell, read while
the cell's framework is still memoised as in a pool worker, so the
pytest parent's own heap stays out of the ratio.
"""

import multiprocessing
import os

import pytest

from repro.apps.cgpop import CGPOP
from repro.parallel.sweep import _execute_cell
from repro.pipeline.experiment import ExperimentGrid, enumerate_cells
from repro.pipeline.framework import HybridMemoryFramework
from repro.trace.shared import SharedTracePlane
from repro.units import MIB

SMAPS = "/proc/self/smaps_rollup"

pytestmark = [
    pytest.mark.skipif(
        not os.path.exists(SMAPS), reason="needs /proc/self/smaps_rollup"
    ),
    pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs the fork start method",
    ),
]


class ProfileHeavyCGPOP(CGPOP):
    """CGPOP with a 2M-miss stream, so the profile dominates a cell's
    memory: the ratio is about 0.38 here, 0.42 at 500k misses and 0.7
    at 100k, where the interpreter's own growth hides the profile."""

    name = "profileheavy"
    stream_misses = 2_000_000


def _private_rss_kib() -> int:
    total = 0
    with open(SMAPS) as fh:
        for line in fh:
            if line.startswith(
                ("Private_Clean:", "Private_Dirty:", "Private_Hugetlb:")
            ):
                total += int(line.split()[1])
    return total


def _probe(queue, app, machine, cell, seed, plane) -> None:
    before = _private_rss_kib()
    memo: dict = {}
    _, error, _, _ = _execute_cell(
        app, machine, cell, seed, memo, None, 1, plane=plane
    )
    queue.put((_private_rss_kib() - before, error))


def _mean_growth_kib(ctx, app, machine, cells, seed, plane) -> float:
    queue = ctx.Queue()
    procs = [
        ctx.Process(
            target=_probe, args=(queue, app, machine, cell, seed, plane)
        )
        for cell in cells
    ]
    for proc in procs:
        proc.start()
    try:
        results = [queue.get(timeout=120) for _ in procs]
    finally:
        for proc in procs:
            proc.join(timeout=30)
            if proc.is_alive():
                proc.kill()
    assert [proc.exitcode for proc in procs] == [0] * len(procs)
    errors = [error for _, error in results if error]
    assert not errors, errors[0]
    return sum(kib for kib, _ in results) / len(results)


def test_plane_workers_grow_under_seven_tenths_of_private(machine):
    ctx = multiprocessing.get_context("fork")
    app = ProfileHeavyCGPOP()
    grid = ExperimentGrid(
        budgets=(32 * MIB, 64 * MIB), strategies=("density", "misses-0%")
    )
    cells = [c for c in enumerate_cells(app, grid) if c.kind == "grid"][:4]
    assert len(cells) == 4
    profiling = HybridMemoryFramework(app, machine, seed=0).profile()
    with SharedTracePlane() as plane:
        handle = plane.publish(
            "plane-rss", profiling.trace, profiling.ground_truth
        )
        private = _mean_growth_kib(ctx, app, machine, cells, 0, None)
        shared = _mean_growth_kib(ctx, app, machine, cells, 0, handle)
    assert shared < 0.7 * private, (
        f"plane probes grew {shared:.0f} KiB against {private:.0f} KiB "
        f"private"
    )
