"""Extrae-substitute tracer: size filter, samples, overhead."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pebs.sampler import PebsSampler
from repro.runtime.allocator import Allocation
from repro.runtime.process import SimProcess
from repro.runtime.symbols import FunctionSymbol, ModuleImage
from repro.trace.columnar import (
    EVENT_COLUMNS,
    KIND_ALLOC,
    KIND_FREE,
    KIND_PHASE,
    KIND_SAMPLE,
    ColumnarTrace,
)
from repro.trace.events import (
    AllocEvent,
    FreeEvent,
    PhaseEvent,
    SampleEvent,
    StaticVarRecord,
)
from repro.trace.tracefile import TraceFile
from repro.trace.tracer import Tracer, TracerConfig
from repro.units import KIB, MIB


def _process():
    modules = [
        ModuleImage(
            name="app",
            size=200,
            functions=[
                FunctionSymbol("main", offset=0, size=64, file="app.c"),
                FunctionSymbol("solve", offset=64, size=64, file="app.c"),
                FunctionSymbol("init", offset=128, size=64, file="app.c"),
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
        rows = tracer.columnar_trace().to_tracefile()
        assert len(rows.alloc_events) == 1
        event = rows.alloc_events[0]
        assert event.size == 8 * KIB
        assert event.callstack.leaf.function == "main"

    def test_small_allocation_filtered(self, traced):
        """Paper: only allocations larger than 4 KiB are monitored."""
        process, tracer = traced
        with process.in_function("app", "main", 1):
            process.malloc(1 * KIB)
        assert tracer.columnar_trace().n_allocs == 0

    def test_free_of_tracked_recorded(self, traced):
        process, tracer = traced
        with process.in_function("app", "main", 1):
            address = process.malloc(8 * KIB)
        process.free(address)
        kinds = tracer.columnar_trace().kinds.tolist()
        assert kinds == [KIND_ALLOC, KIND_FREE]

    def test_free_of_filtered_not_recorded(self, traced):
        process, tracer = traced
        with process.in_function("app", "main", 1):
            address = process.malloc(512)
        process.free(address)
        assert tracer.columnar_trace().n_events == 0

    def test_timestamps_follow_clock(self, traced):
        process, tracer = traced
        process.advance(4.2)
        with process.in_function("app", "main", 1):
            process.malloc(8 * KIB)
        assert tracer.columnar_trace().times.tolist() == [pytest.approx(4.2)]


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
        cols = tracer.columnar_trace()
        assert cols.kinds.tolist() == [KIND_PHASE]
        assert cols.functions[cols.aux[0]] == "octsweep"


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
        # The tracer holds arrays only: no row object is ever built.
        assert all(
            isinstance(column, np.ndarray)
            for chunk in tracer._chunks
            for column in chunk.values()
        )
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
        from repro._oracles import attribute_samples
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
        alloc = cols.to_tracefile().events[3]
        assert (alloc.address, alloc.size) == (address, 8 * KIB)

    def test_repeatable_and_releases_chunks(self):
        _, tracer = self._tracer()
        tracer.record_misses(np.arange(30, dtype=np.uint64) * 64,
                             np.linspace(0, 1, 30))
        first = tracer.columnar_trace()
        assert tracer.columnar_trace() is first
        # The tracer now holds the merged columns, not a second copy.
        assert np.shares_memory(
            tracer._chunks[0]["addresses"], first.addresses
        )
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
        assert cols.kinds.tolist() == [KIND_ALLOC]
        assert cols.sizes.tolist() == [8 * KIB]

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
        cols = tracer.columnar_trace()
        assert cols.static_names == ("grid",)
        assert cols.static_sizes.tolist() == [4096]
        base, size = cols.metadata["stack_region"]
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


class _RowRecorder:
    """The tracer's oracle: the same callbacks recorded event by event
    into a :class:`TraceFile`, for ``from_tracefile`` to columnarise."""

    def __init__(self, tracer: Tracer, process: SimProcess) -> None:
        config = tracer.config
        self.config, self.rank, self.process = config, tracer.rank, process
        self.sampler = PebsSampler(
            period=config.sampling_period,
            phase=tracer.rank % config.sampling_period,
        )
        self.trace = TraceFile(
            application=tracer.application,
            sampling_period=config.sampling_period,
            metadata={"stack_region": [process.stack_region.base,
                                       process.stack_region.size]},
            statics=[
                StaticVarRecord(name, tracer.rank, region.base, region.size)
                for name, region in process.statics.items()
            ],
        )

    def on_malloc(self, alloc, clock):
        if alloc.size >= self.config.min_alloc_size:
            self.trace.append(AllocEvent(
                clock, self.rank, alloc.address, alloc.size,
                self.process.symbols.translate(alloc.callstack),
                alloc.allocator,
            ))

    def on_free(self, alloc, clock):
        if alloc.size >= self.config.min_alloc_size:
            self.trace.append(FreeEvent(clock, self.rank, alloc.address))

    def record_phase(self, function, clock):
        self.trace.append(PhaseEvent(clock, self.rank, function))

    def record_misses(self, addresses, times, latencies):
        if not self.config.record_latency:
            latencies = None
        picked = self.sampler.sample_chunk_arrays(addresses, times, latencies)
        for i in range(picked[0].size):
            self.trace.append(SampleEvent(
                float(picked[1][i]), self.rank, int(picked[0][i]),
                None if picked[2] is None else int(picked[2][i]),
            ))


def _assert_same_trace(got: ColumnarTrace, want: ColumnarTrace) -> None:
    for name in (*EVENT_COLUMNS, "static_ranks", "static_addresses",
                 "static_sizes"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype, name
        assert np.array_equal(g, w), name
    for name in ("application", "ranks", "sampling_period", "metadata",
                 "callstacks", "functions", "allocators", "static_names"):
        assert getattr(got, name) == getattr(want, name), name


_FUNCTIONS = ("main", "solve", "init")
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("malloc"), st.sampled_from((KIB, 8 * KIB, 64 * KIB)),
                  st.sampled_from(_FUNCTIONS),
                  st.sampled_from(("posix", "memkind", "kmp"))),
        st.tuples(st.just("free"), st.integers(0, 40)),
        st.tuples(st.just("phase"), st.sampled_from(_FUNCTIONS)),
        st.tuples(st.just("misses"), st.integers(0, 25)),
        st.tuples(st.just("snapshot")),
    ),
    max_size=40,
)


class TestRowEquivalenceProperty:
    @given(_ops, st.integers(1, 5), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_columns_equal_row_by_row_trace(self, ops, period, latency):
        """Any interleaving of records and sample chunks, with the
        trace also taken mid-stream, gives the columns that feeding
        the same events row by row through ``TraceFile`` and
        ``from_tracefile`` gives; earlier snapshots stay unchanged."""
        process = _process()
        process.register_static("grid", 4096)
        tracer = Tracer(
            TracerConfig(min_alloc_size=4 * KIB, sampling_period=period,
                         record_latency=latency),
            application="prop", rank=1,
        )
        tracer.attach(process)
        rows = _RowRecorder(tracer, process)
        stacks = {}
        for function in _FUNCTIONS:
            with process.in_function("app", function, 1):
                stacks[function] = process.backtrace()
        live: list[Allocation] = []
        snapshots = []
        rng = np.random.default_rng(period)
        for step, op in enumerate(ops):
            clock = step * 0.5
            if op[0] == "malloc":
                alloc = Allocation(0x10000 * (step + 1), op[1], op[3],
                                   step, stacks[op[2]])
                live.append(alloc)
                for observer in (tracer, rows):
                    observer.on_malloc(alloc, clock)
            elif op[0] == "free" and live:
                alloc = live.pop(op[1] % len(live))
                for observer in (tracer, rows):
                    observer.on_free(alloc, clock)
            elif op[0] == "phase":
                for observer in (tracer, rows):
                    observer.record_phase(op[1], clock)
            elif op[0] == "misses":
                n = op[1]
                chunk = (
                    rng.integers(0, 2**40, size=n).astype(np.uint64),
                    clock + np.linspace(0.0, 0.4, n),
                    rng.integers(50, 500, size=n),
                )
                for observer in (tracer, rows):
                    observer.record_misses(*chunk)
            elif op[0] == "snapshot":
                want = ColumnarTrace.from_tracefile(rows.trace)
                got = tracer.columnar_trace()
                _assert_same_trace(got, want)
                snapshots.append((got, want))
        _assert_same_trace(
            tracer.columnar_trace(), ColumnarTrace.from_tracefile(rows.trace)
        )
        for got, want in snapshots:
            _assert_same_trace(got, want)
