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
* owns the PEBS sampler and writes the whole trace as NumPy columns:
  the sparse allocation/free/phase records go to per-field lists,
  with call-stacks, functions and allocators interned as they arrive,
  and the sampler's picks stay arrays, so no per-event object is
  ever built;
* records phase (function) markers for the Folding analysis;
* accounts its own monitoring overhead so Table I's overhead column
  can be reproduced.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from repro.pebs.sampler import PebsSampler
from repro.runtime.allocator import Allocation
from repro.runtime.callstack import CallStack
from repro.runtime.process import SimProcess
from repro.runtime.symbols import translate_cost_us, unwind_cost_us
from repro.trace.columnar import (
    COLUMN_DTYPES,
    EVENT_COLUMNS,
    KIND_ALLOC,
    KIND_FREE,
    KIND_PHASE,
    KIND_SAMPLE,
    NO_LATENCY,
    ColumnarTrace,
)
from repro.units import KIB, MICROSECOND

#: Columns a sparse record sets; its rank and (absent) latency come
#: from :data:`_FILL`.
_RECORD_COLUMNS = (
    "times", "kinds", "addresses", "sizes", "aux", "allocator_ids"
)

#: Value of a column over a chunk that does not carry it: what a
#: sample has no use for, and the latency of records (and of samples
#: from a PMU that reports none).
_FILL = {
    "kinds": KIND_SAMPLE,
    "sizes": 0,
    "latencies": NO_LATENCY,
    "aux": -1,
    "allocator_ids": -1,
}


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
        self.application = application
        self.rank = rank
        self.sampler = PebsSampler(
            period=self.config.sampling_period,
            phase=rank % self.config.sampling_period,
        )
        self._process: SimProcess | None = None
        #: Seconds of perturbation the tracer added (Table I overhead).
        self.overhead_seconds = 0.0
        self._metadata: dict = {}
        #: The static-variable columns, fixed at attach time.
        self._statics: dict = {}
        #: Interned side tables, in first-seen order.
        self._callstack_ids: dict[CallStack, int] = {}
        self._function_ids: dict[str, int] = {}
        self._allocator_ids: dict[str, int] = {}
        #: Sparse records not yet flushed, one list per record column.
        self._records: tuple[list, ...] = tuple([] for _ in _RECORD_COLUMNS)
        #: Column chunks in recording order, each a dict of the columns
        #: it carries; the others take their :data:`_FILL` value.
        self._chunks: list[dict[str, np.ndarray]] = []
        #: The last merge, until something new is recorded.
        self._merged: ColumnarTrace | None = None

    # -- lifecycle -----------------------------------------------------------

    def attach(self, process: SimProcess) -> None:
        # The process holds the tracer as an observer; a weak reference
        # back keeps the pair out of a cycle, so a dropped profile's
        # columns are freed at once rather than at the next collection.
        self._process = weakref.proxy(process)
        process.add_observer(self)
        self._metadata["stack_region"] = [
            process.stack_region.base,
            process.stack_region.size,
        ]
        regions = process.statics
        self._statics = {
            "static_names": tuple(regions),
            "static_ranks": np.full(
                len(regions), self.rank, dtype=COLUMN_DTYPES["static_ranks"]
            ),
            "static_addresses": np.array(
                [region.base for region in regions.values()],
                dtype=COLUMN_DTYPES["static_addresses"],
            ),
            "static_sizes": np.array(
                [region.size for region in regions.values()],
                dtype=COLUMN_DTYPES["static_sizes"],
            ),
        }

    def _record(self, *values) -> None:
        """Append one sparse record (the :data:`_RECORD_COLUMNS`)."""
        for column, value in zip(self._records, values):
            column.append(value)
        self._merged = None

    def _flush_records(self) -> None:
        """Close the pending records into a column chunk."""
        if self._records[0]:
            self._chunks.append({
                name: np.array(values, dtype=COLUMN_DTYPES[name])
                for name, values in zip(_RECORD_COLUMNS, self._records)
            })
            for values in self._records:
                values.clear()

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
        callstacks, allocators = self._callstack_ids, self._allocator_ids
        self._record(
            clock,
            KIND_ALLOC,
            alloc.address,
            alloc.size,
            callstacks.setdefault(callstack, len(callstacks)),
            allocators.setdefault(alloc.allocator, len(allocators)),
        )

    def on_free(self, alloc: Allocation, clock: float) -> None:
        if alloc.size < self.config.min_alloc_size:
            return
        self.overhead_seconds += self.config.record_cost_us * MICROSECOND
        self._record(clock, KIND_FREE, alloc.address, 0, -1, -1)

    # -- sampling ------------------------------------------------------------

    def record_misses(
        self,
        addresses: np.ndarray,
        times: np.ndarray,
        latencies: np.ndarray | None = None,
    ) -> int:
        """Feed a chunk of LLC misses through the PEBS sampler.

        Returns the number of samples folded into the trace. The picks
        stay NumPy columns, kept as one chunk after the records traced
        before them; no per-sample Python object is ever built.
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
            self._flush_records()
            chunk = {"addresses": picked_addrs, "times": picked_times}
            if picked_lats is not None:
                chunk["latencies"] = picked_lats
            self._chunks.append(chunk)
            self._merged = None
        self.overhead_seconds += (
            n_picked * self.config.sample_cost_us * MICROSECOND
        )
        return n_picked

    def record_phase(self, function: str, clock: float) -> None:
        """Mark entry into a code phase (for the Folding analysis)."""
        functions = self._function_ids
        self._record(
            clock,
            KIND_PHASE,
            0,
            0,
            functions.setdefault(function, len(functions)),
            -1,
        )

    def columnar_trace(self) -> ColumnarTrace:
        """Everything traced so far as one :class:`ColumnarTrace`.

        Rows are in recording order, so the result equals columnarising
        the same run traced event by event. Every column is allocated
        once at its final length and filled chunk by chunk; the merged
        columns then replace the chunks, so the tracer keeps no second
        copy of its samples. Repeated calls return the same trace until
        something new is recorded.
        """
        if self._merged is not None:
            return self._merged
        self._flush_records()
        fill = {**_FILL, "event_ranks": self.rank}
        sizes = [chunk["times"].size for chunk in self._chunks]
        bounds = np.cumsum([0, *sizes]).tolist()
        columns = {}
        for name in EVENT_COLUMNS:
            out = np.empty(bounds[-1], dtype=COLUMN_DTYPES[name])
            for start, stop, chunk in zip(bounds, bounds[1:], self._chunks):
                out[start:stop] = chunk[name] if name in chunk else fill[name]
            columns[name] = out
        self._chunks = [columns]
        self._merged = ColumnarTrace(
            application=self.application,
            ranks=1,
            sampling_period=self.config.sampling_period,
            metadata=dict(self._metadata),
            **columns,
            callstacks=tuple(self._callstack_ids),
            functions=tuple(self._function_ids),
            allocators=tuple(self._allocator_ids),
            **self._statics,
        )
        return self._merged

    # -- summary -------------------------------------------------------------

    @property
    def n_samples(self) -> int:
        return self.sampler.samples_taken

    def monitoring_overhead(self, base_runtime: float) -> float:
        """Overhead as a fraction of the uninstrumented runtime."""
        if base_runtime <= 0:
            raise ValueError("base runtime must be positive")
        return self.overhead_seconds / base_runtime
