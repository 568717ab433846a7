"""Extrae-substitute tracer: size filter, samples, overhead."""

import gc
import weakref

import numpy as np
import pytest

from repro.runtime.process import SimProcess
from repro.runtime.symbols import FunctionSymbol, ModuleImage
from repro.trace.columnar import KIND_ALLOC, KIND_FREE, KIND_PHASE, KIND_SAMPLE
from repro.trace.tracer import Tracer, TracerConfig
from repro.units import KIB, MIB


def _process():
    modules = [
        ModuleImage(
            name="app",
            size=200,
            functions=[
                FunctionSymbol("main", offset=0, size=64, file="app.c"),
            ],
        )
    ]
    return SimProcess(modules=modules, heap_size=64 * MIB, hbw_size=MIB)


@pytest.fixture()
def traced():
    process = _process()
    tracer = Tracer(TracerConfig(min_alloc_size=4 * KIB, sampling_period=3),
                    application="t", rank=0)
    tracer.attach(process)
    return process, tracer


class TestAllocationRecording:
    def test_large_allocation_recorded(self, traced):
        process, tracer = traced
        with process.in_function("app", "main", 1):
            process.malloc(8 * KIB)
        assert len(tracer.trace.alloc_events) == 1
        event = tracer.trace.alloc_events[0]
        assert event.size == 8 * KIB
        assert event.callstack.leaf.function == "main"

    def test_small_allocation_filtered(self, traced):
        """Paper: only allocations larger than 4 KiB are monitored."""
        process, tracer = traced
        with process.in_function("app", "main", 1):
            process.malloc(1 * KIB)
        assert tracer.trace.alloc_events == []

    def test_free_of_tracked_recorded(self, traced):
        process, tracer = traced
        with process.in_function("app", "main", 1):
            address = process.malloc(8 * KIB)
        process.free(address)
        assert len(tracer.trace.free_events) == 1

    def test_free_of_filtered_not_recorded(self, traced):
        process, tracer = traced
        with process.in_function("app", "main", 1):
            address = process.malloc(512)
        process.free(address)
        assert tracer.trace.free_events == []

    def test_timestamps_follow_clock(self, traced):
        process, tracer = traced
        process.advance(4.2)
        with process.in_function("app", "main", 1):
            process.malloc(8 * KIB)
        assert tracer.trace.alloc_events[0].time == pytest.approx(4.2)


class TestSampling:
    def test_samples_folded_into_trace(self, traced):
        _, tracer = traced
        addrs = np.arange(30, dtype=np.uint64) * 64
        n = tracer.record_misses(addrs, np.linspace(0, 1, 30))
        assert n == 10  # period 3
        assert tracer.columnar_trace().n_samples == 10

    def test_phase_markers(self, traced):
        _, tracer = traced
        tracer.record_phase("octsweep", 1.0)
        assert tracer.trace.phase_events[0].function == "octsweep"


class TestColumnarSamples:
    def _tracer(self, **kwargs):
        process = _process()
        tracer = Tracer(
            TracerConfig(min_alloc_size=4 * KIB, sampling_period=3,
                         **kwargs),
            application="t", rank=0,
        )
        tracer.attach(process)
        return process, tracer

    def test_samples_bypass_event_objects(self):
        _, tracer = self._tracer()
        n = tracer.record_misses(np.arange(30, dtype=np.uint64) * 64,
                                 np.linspace(0, 1, 30))
        assert n == 10
        assert tracer.trace.sample_events == []  # no row objects built
        assert tracer.columnar_trace().n_samples == 10

    def test_chunks_merged_across_calls(self):
        _, tracer = self._tracer()
        for start in range(0, 60, 20):
            tracer.record_misses(
                np.arange(start, start + 20, dtype=np.uint64) * 64,
                np.linspace(start, start + 1, 20),
            )
        cols = tracer.columnar_trace()
        assert cols.n_samples == 20  # 60 misses / period 3
        assert cols.n_samples == sum(
            1 for e in cols.to_tracefile().sample_events
        )

    def test_attribution_equivalent_to_row_mode(self):
        """Attributing the columns directly must equal the per-event
        oracle over the same trace's row-oriented export."""
        from repro.analysis.attribution import attribute_samples
        from repro.analysis.vectorattr import attribute_samples_vector

        process = _process()
        tracer = Tracer(
            TracerConfig(min_alloc_size=4 * KIB, sampling_period=3,
                         record_latency=True),
            application="t", rank=0,
        )
        tracer.attach(process)
        with process.in_function("app", "main", 1):
            address = process.malloc(8 * KIB)
        misses = address + (np.arange(30, dtype=np.uint64) * 64) % (8 * KIB)
        tracer.record_misses(misses, np.linspace(0.1, 0.9, 30),
                             np.full(30, 250, dtype=np.int64))
        cols = tracer.columnar_trace()
        assert cols.n_samples == 10
        assert attribute_samples_vector(cols) == (
            attribute_samples(cols.to_tracefile())
        )

    def test_rows_in_recording_order(self):
        """Each sample chunk lands after the records traced before it,
        exactly where an event-by-event trace would hold it."""
        process, tracer = self._tracer()
        tracer.record_misses(np.arange(9, dtype=np.uint64) * 64,
                             np.linspace(0.0, 0.1, 9))
        with process.in_function("app", "main", 1):
            address = process.malloc(8 * KIB)
        tracer.record_phase("solve", 0.2)
        tracer.record_misses(np.arange(6, dtype=np.uint64) * 64 + address,
                             np.linspace(0.3, 0.4, 6))
        process.free(address)
        cols = tracer.columnar_trace()
        assert cols.kinds.tolist() == (
            [KIND_SAMPLE] * 3 + [KIND_ALLOC, KIND_PHASE]
            + [KIND_SAMPLE] * 2 + [KIND_FREE]
        )
        assert cols.to_tracefile().events[3] == tracer.trace.events[0]

    def test_repeatable_and_releases_chunks(self):
        _, tracer = self._tracer()
        tracer.record_misses(np.arange(30, dtype=np.uint64) * 64,
                             np.linspace(0, 1, 30))
        first = tracer.columnar_trace()
        assert tracer.columnar_trace() is first
        # The buffered chunk is now a view into the merged columns.
        assert np.shares_memory(tracer._sample_chunks[0][1], first.addresses)
        tracer.record_misses(np.arange(30, 60, dtype=np.uint64) * 64,
                             np.linspace(1, 2, 30))
        second = tracer.columnar_trace()
        assert second.n_samples == 20
        assert np.array_equal(second.addresses[:10], first.addresses)

    def test_columnar_samples_flag_is_ignored(self):
        def trace(flag):
            process = _process()
            tracer = Tracer(
                TracerConfig(sampling_period=3, columnar_samples=flag),
                application="t", rank=0,
            )
            tracer.attach(process)
            tracer.record_misses(np.arange(30, dtype=np.uint64) * 64,
                                 np.linspace(0, 1, 30))
            return tracer.columnar_trace().to_tracefile()

        assert trace(False) == trace(True)

    def test_no_samples_returns_base_records(self):
        process, tracer = self._tracer()
        with process.in_function("app", "main", 1):
            process.malloc(8 * KIB)
        cols = tracer.columnar_trace()
        assert cols.n_samples == 0
        assert cols.n_allocs == 1
        assert cols.to_tracefile() == tracer.trace

    def test_overhead_still_accounted(self):
        _, tracer = self._tracer()
        tracer.record_misses(np.arange(30, dtype=np.uint64) * 64,
                             np.linspace(0, 1, 30))
        assert tracer.overhead_seconds > 0


class TestMetadata:
    def test_statics_and_stack_exported(self):
        process = _process()
        process.register_static("grid", 4096)
        tracer = Tracer(application="t")
        tracer.attach(process)
        assert tracer.trace.statics[0].name == "grid"
        base, size = tracer.trace.metadata["stack_region"]
        assert size > 0
        assert base == process.stack_region.base


class TestOverhead:
    def test_overhead_accumulates(self, traced):
        process, tracer = traced
        with process.in_function("app", "main", 1):
            process.malloc(8 * KIB)
        tracer.record_misses(np.arange(30, dtype=np.uint64),
                             np.linspace(0, 1, 30))
        assert tracer.overhead_seconds > 0

    def test_monitoring_overhead_fraction(self, traced):
        process, tracer = traced
        with process.in_function("app", "main", 1):
            process.malloc(8 * KIB)
        frac = tracer.monitoring_overhead(base_runtime=100.0)
        assert 0 < frac < 0.01

    def test_bad_runtime_rejected(self, traced):
        _, tracer = traced
        with pytest.raises(ValueError):
            tracer.monitoring_overhead(0.0)


class TestLifetime:
    def test_dropped_profile_freed_without_cycle_collection(self, tiny_app):
        """The process holds its tracer as an observer; the tracer must
        not hold the process strongly back, or a dropped profile's
        columns wait for the cycle collector."""
        gc.disable()
        try:
            run = tiny_app.run_profiling(seed=0)
            columns = weakref.ref(run.trace)
            del run
            assert columns() is None
        finally:
            gc.enable()
