"""The Extrae substitute: hooks a process, emits a trace.

Section III, Step 1: "to perform this analysis the framework only
needs dynamic-memory allocations and deallocations and sampled memory
references for the LLC misses". The tracer therefore:

* observes every allocation/deallocation of a :class:`SimProcess`
  (registering address range, size and the *translated* call-stack —
  Extrae uses binutils to obtain human-readable references);
* filters allocations below a minimum size (the paper monitors only
  allocations larger than 4 KiB "to avoid small (and possibly
  frequent) allocations such as those related to I/O");
* owns the PEBS sampler and folds its samples into the trace as
  NumPy columns (the sparse allocation/phase records are the only
  per-event objects it builds);
* records phase (function) markers for the Folding analysis;
* accounts its own monitoring overhead so Table I's overhead column
  can be reproduced.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, replace

import numpy as np

from repro.pebs.sampler import PebsSampler
from repro.runtime.allocator import Allocation
from repro.runtime.process import SimProcess
from repro.runtime.symbols import translate_cost_us, unwind_cost_us
from repro.trace.columnar import KIND_SAMPLE, NO_LATENCY, ColumnarTrace
from repro.trace.events import (
    AllocEvent,
    FreeEvent,
    PhaseEvent,
    StaticVarRecord,
)
from repro.trace.tracefile import TraceFile
from repro.units import KIB, MICROSECOND


@dataclass(frozen=True, slots=True)
class TracerConfig:
    """Knobs of the tracing stage (paper defaults from Section IV-A)."""

    #: Minimum allocation size to record.
    min_alloc_size: int = 4 * KIB
    #: PEBS sampling period (paper: 37,589 on hardware).
    sampling_period: int = 7
    #: Modelled cost of storing one trace record.
    record_cost_us: float = 0.3
    #: Modelled cost of servicing one PEBS interrupt.
    sample_cost_us: float = 1.5
    #: Record per-sample access latency (Xeon-style PEBS; the Xeon Phi
    #: PMU the paper uses does not provide it).
    record_latency: bool = False
    #: Ignored; kept so existing callers stay constructible. Samples
    #: are always kept as NumPy columns (see :meth:`Tracer.columnar_trace`).
    columnar_samples: bool = False


class Tracer:
    """Per-process tracer; attach with :meth:`attach`."""

    def __init__(
        self,
        config: TracerConfig | None = None,
        application: str = "",
        rank: int = 0,
    ) -> None:
        self.config = config or TracerConfig()
        self.rank = rank
        #: The sparse records (alloc/free/phase, statics, metadata);
        #: samples never become row events here.
        self.trace = TraceFile(
            application=application,
            ranks=1,
            sampling_period=self.config.sampling_period,
        )
        self.sampler = PebsSampler(
            period=self.config.sampling_period,
            phase=rank % self.config.sampling_period,
        )
        self._process: SimProcess | None = None
        #: Seconds of perturbation the tracer added (Table I overhead).
        self.overhead_seconds = 0.0
        #: Picked samples per fed chunk: (records traced before it,
        #: addresses, times, latencies-or-None).
        self._sample_chunks: list[
            tuple[int, np.ndarray, np.ndarray, np.ndarray | None]
        ] = []
        #: Last merge and the (records, chunks) counts it covered.
        self._merged: tuple[tuple[int, int], ColumnarTrace] | None = None

    # -- lifecycle -----------------------------------------------------------

    def attach(self, process: SimProcess) -> None:
        # The process holds the tracer as an observer; a weak reference
        # back keeps the pair out of a cycle, so a dropped profile's
        # columns are freed at once rather than at the next collection.
        self._process = weakref.proxy(process)
        process.add_observer(self)
        self.trace.metadata["stack_region"] = [
            process.stack_region.base,
            process.stack_region.size,
        ]
        for name, region in process.statics.items():
            self.trace.statics.append(
                StaticVarRecord(
                    name=name, rank=self.rank, address=region.base, size=region.size
                )
            )

    # -- AllocObserver -------------------------------------------------------

    def on_malloc(self, alloc: Allocation, clock: float) -> None:
        if alloc.size < self.config.min_alloc_size:
            return
        assert self._process is not None, "tracer not attached"
        callstack = self._process.symbols.translate(alloc.callstack)
        depth = len(callstack)
        self.overhead_seconds += (
            unwind_cost_us(depth)
            + translate_cost_us(depth)
            + self.config.record_cost_us
        ) * MICROSECOND
        self.trace.append(
            AllocEvent(
                time=clock,
                rank=self.rank,
                address=alloc.address,
                size=alloc.size,
                callstack=callstack,
                allocator=alloc.allocator,
            )
        )

    def on_free(self, alloc: Allocation, clock: float) -> None:
        if alloc.size < self.config.min_alloc_size:
            return
        self.overhead_seconds += self.config.record_cost_us * MICROSECOND
        self.trace.append(
            FreeEvent(time=clock, rank=self.rank, address=alloc.address)
        )

    # -- sampling ------------------------------------------------------------

    def record_misses(
        self,
        addresses: np.ndarray,
        times: np.ndarray,
        latencies: np.ndarray | None = None,
    ) -> int:
        """Feed a chunk of LLC misses through the PEBS sampler.

        Returns the number of samples folded into the trace. The picks
        stay NumPy columns, buffered beside the count of records traced
        so far; no per-sample Python object is ever built.
        ``latencies`` is only stored when the tracer is configured for
        a latency-reporting PMU.
        """
        if not self.config.record_latency:
            latencies = None
        picked_addrs, picked_times, picked_lats = (
            self.sampler.sample_chunk_arrays(addresses, times, latencies)
        )
        n_picked = int(picked_addrs.size)
        if n_picked:
            self._sample_chunks.append(
                (len(self.trace.events), picked_addrs, picked_times,
                 picked_lats)
            )
        self.overhead_seconds += (
            n_picked * self.config.sample_cost_us * MICROSECOND
        )
        return n_picked

    def record_phase(self, function: str, clock: float) -> None:
        """Mark entry into a code phase (for the Folding analysis)."""
        self.trace.append(
            PhaseEvent(time=clock, rank=self.rank, function=function)
        )

    def columnar_trace(self) -> ColumnarTrace:
        """Everything traced so far as one :class:`ColumnarTrace`.

        Rows are in recording order — each sample chunk sits after the
        records traced before it — so the result equals columnarising
        the same run traced event by event. Every column is allocated
        once at its final length and filled in place; the buffered
        chunks then become views into the merged columns, so the
        tracer keeps no second copy of its samples. Repeated calls
        return the same trace until something new is recorded.
        """
        key = (len(self.trace.events), len(self._sample_chunks))
        if self._merged is not None and self._merged[0] == key:
            return self._merged[1]
        base = ColumnarTrace.from_tracefile(self.trace)
        chunks = self._sample_chunks
        if not chunks:
            self._merged = (key, base)
            return base
        before = np.array([c[0] for c in chunks], dtype=np.int64)
        counts = np.array([c[1].size for c in chunks], dtype=np.int64)
        ends = np.cumsum(counts)
        starts = before + ends - counts
        # A record moves down by the samples of every chunk fed before it.
        n_records = base.n_events
        record_rows = np.arange(n_records) + np.concatenate(([0], ends))[
            np.searchsorted(before, np.arange(n_records), side="right")
        ]
        n = n_records + int(ends[-1])

        def column(records, fill=None, part=None):
            out = (
                np.empty(n, dtype=records.dtype)
                if fill is None
                else np.full(n, fill, dtype=records.dtype)
            )
            if part is not None:
                for start, chunk in zip(starts.tolist(), chunks):
                    if chunk[part] is not None:
                        out[start:start + chunk[part].size] = chunk[part]
            out[record_rows] = records
            return out

        merged = replace(
            base,
            times=column(base.times, part=2),
            kinds=column(base.kinds, fill=KIND_SAMPLE),
            event_ranks=column(base.event_ranks, fill=self.rank),
            addresses=column(base.addresses, part=1),
            sizes=column(base.sizes, fill=0),
            latencies=column(base.latencies, fill=NO_LATENCY, part=3),
            aux=column(base.aux, fill=-1),
            allocator_ids=column(base.allocator_ids, fill=-1),
        )
        self._sample_chunks = [
            (
                chunk[0],
                merged.addresses[start:start + chunk[1].size],
                merged.times[start:start + chunk[1].size],
                None
                if chunk[3] is None
                else merged.latencies[start:start + chunk[1].size],
            )
            for start, chunk in zip(starts.tolist(), chunks)
        ]
        self._merged = (key, merged)
        return merged

    # -- summary -------------------------------------------------------------

    @property
    def n_samples(self) -> int:
        return self.sampler.samples_taken

    def monitoring_overhead(self, base_runtime: float) -> float:
        """Overhead as a fraction of the uninstrumented runtime."""
        if base_runtime <= 0:
            raise ValueError("base runtime must be positive")
        return self.overhead_seconds / base_runtime
