"""posix_memalign through the interposition path."""

import pytest

from repro.advisor.report import PlacementEntry, PlacementReport
from repro.analysis.objects import ObjectKey, ObjectKind
from repro.interpose.autohbw import AutoHBW
from repro.interpose.hbwmalloc import AutoHbwMalloc
from repro.runtime.process import SimProcess
from repro.runtime.symbols import FunctionSymbol, ModuleImage
from repro.units import KIB, MIB


def _process():
    modules = [
        ModuleImage(
            name="app",
            size=400,
            functions=[
                FunctionSymbol("main", offset=0, size=64, file="app.c"),
                FunctionSymbol("hot_site", offset=96, size=64, file="app.c"),
            ],
        )
    ]
    return SimProcess(modules=modules, seed=1, heap_size=64 * MIB,
                      hbw_size=32 * MIB, hbw_capacity=16 * MIB)


def _report():
    key = ObjectKey(
        kind=ObjectKind.DYNAMIC,
        identity=(("hot_site", "app.c", 5), ("main", "app.c", 1)),
    )
    report = PlacementReport(application="t", strategy="misses-0%")
    report.budgets["MCDRAM"] = 8 * MIB
    report.entries.append(
        PlacementEntry(key=key, tier="MCDRAM", size=1 * MIB,
                       sampled_misses=10)
    )
    report.finalize_bounds()
    report.lb_size = 4 * KIB
    return report


class TestAutoHbwMemalign:
    def test_matching_site_served_aligned_from_memkind(self):
        process = _process()
        hook = AutoHbwMalloc(process, _report(), tier="MCDRAM")
        process.install_malloc_hook(hook)
        with process.in_function("app", "main", 1):
            with process.in_function("app", "hot_site", 5):
                address = process.posix_memalign(4096, 64 * KIB)
        assert address % 4096 == 0
        assert process.memkind.owns(address)
        process.free(address)
        assert not process.memkind.owns(address)

    def test_non_matching_falls_back_aligned(self):
        process = _process()
        hook = AutoHbwMalloc(process, _report(), tier="MCDRAM")
        process.install_malloc_hook(hook)
        with process.in_function("app", "main", 2):
            address = process.posix_memalign(4096, 64 * KIB)
        assert address % 4096 == 0
        assert process.posix.owns(address)

    def test_budget_enforced_for_aligned(self):
        process = _process()
        hook = AutoHbwMalloc(process, _report(), tier="MCDRAM",
                             budget=128 * KIB)
        process.install_malloc_hook(hook)
        with process.in_function("app", "main", 1):
            with process.in_function("app", "hot_site", 5):
                a = process.posix_memalign(4096, 100 * KIB)
                b = process.posix_memalign(4096, 100 * KIB)
        assert process.memkind.owns(a)
        assert process.posix.owns(b)
        assert hook.stats.calls_did_not_fit == 1


class TestAutoHbwMemalignBaseline:
    def test_autohbw_promotes_large_aligned(self):
        process = _process()
        process.install_malloc_hook(AutoHBW(process, min_size=1 * MIB))
        with process.in_function("app", "main", 1):
            address = process.posix_memalign(64, 2 * MIB)
        assert process.memkind.owns(address)

    def test_autohbw_skips_small_aligned(self):
        process = _process()
        process.install_malloc_hook(AutoHBW(process, min_size=1 * MIB))
        with process.in_function("app", "main", 1):
            address = process.posix_memalign(64, 16 * KIB)
        assert process.posix.owns(address)


class TestTracerSeesAligned:
    def test_aligned_allocations_traced(self):
        from repro.trace.tracer import Tracer

        process = _process()
        tracer = Tracer(application="t")
        tracer.attach(process)
        with process.in_function("app", "main", 1):
            address = process.posix_memalign(4096, 64 * KIB)
        process.free(address)
        rows = tracer.columnar_trace().to_tracefile()
        assert len(rows.alloc_events) == 1
        assert rows.alloc_events[0].size == 64 * KIB
