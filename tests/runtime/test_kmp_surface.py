"""OpenMP (kmp_*) allocation surface."""

import pytest

from repro.interpose.autohbw import AutoHBW
from repro.runtime.process import SimProcess
from repro.runtime.symbols import FunctionSymbol, ModuleImage
from repro.units import KIB, MIB


def _process():
    modules = [
        ModuleImage(
            name="app",
            size=200,
            functions=[FunctionSymbol("main", 0, 64, "app.c")],
        )
    ]
    return SimProcess(modules=modules, heap_size=64 * MIB,
                      hbw_size=16 * MIB, hbw_capacity=8 * MIB)


class TestKmpSurface:
    def test_kmp_malloc_free(self):
        process = _process()
        with process.in_function("app", "main", 1):
            address = process.kmp_malloc(4 * KIB)
        assert process.posix.owns(address)
        process.kmp_free(address)
        assert not process.posix.owns(address)

    def test_kmp_realloc(self):
        process = _process()
        with process.in_function("app", "main", 1):
            a = process.kmp_malloc(4 * KIB)
            b = process.kmp_realloc(a, 64 * KIB)
        assert process.posix.owns(b)

    def test_kmp_aligned_malloc_pads(self):
        process = _process()
        with process.in_function("app", "main", 1):
            address = process.kmp_aligned_malloc(4096, 10 * KIB)
        alloc = process.posix.live.lookup_base(address)
        assert alloc.size >= 10 * KIB + 4096 - 16

    def test_kmp_aligned_small_alignment_plain(self):
        process = _process()
        with process.in_function("app", "main", 1):
            address = process.kmp_aligned_malloc(16, 10 * KIB)
        assert process.posix.live.lookup_base(address).size == 10 * KIB

    def test_kmp_calls_are_interposed(self):
        """The paper's library wraps kmp_malloc etc. — the hook must
        see OpenMP allocations exactly like libc ones."""
        process = _process()
        hook = AutoHBW(process, min_size=0)
        process.install_malloc_hook(hook)
        with process.in_function("app", "main", 1):
            address = process.kmp_malloc(64 * KIB)
        assert process.memkind.owns(address)
        process.kmp_free(address)
        assert hook.stats.calls_intercepted == 1

    def test_kmp_observed_by_tracer(self):
        from repro.trace.tracer import Tracer

        process = _process()
        tracer = Tracer(application="t")
        tracer.attach(process)
        with process.in_function("app", "main", 1):
            address = process.kmp_malloc(64 * KIB)
        process.kmp_free(address)
        rows = tracer.columnar_trace().to_tracefile()
        assert len(rows.alloc_events) == 1
        assert len(rows.free_events) == 1
