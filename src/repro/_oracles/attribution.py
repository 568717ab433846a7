"""The per-event attribution replay :mod:`repro.analysis.vectorattr`
reproduces bit for bit.

Because the default allocator reuses addresses (free lists), matching
must respect time: the replay walks allocation, deallocation and
sample events in timestamp order, maintaining a live-range index, so a
sample lands on the object that owned the address *at sample time*.
"""

from __future__ import annotations

from repro.analysis.attribution import (
    _PRIORITY,
    AttributionResult,
    stack_region_of,
)
from repro.analysis.objects import ObjectKey
from repro.runtime.heap import LiveRangeIndex
from repro.trace.events import AllocEvent, FreeEvent, SampleEvent
from repro.trace.tracefile import TraceFile


def attribute_samples(trace: TraceFile) -> AttributionResult:
    """Replay ``trace`` and attribute every sample to an object."""
    result = AttributionResult()
    index: LiveRangeIndex[ObjectKey] = LiveRangeIndex()

    stack_base, stack_size = stack_region_of(trace.metadata)

    for static in trace.statics:
        key = ObjectKey.static(static.name)
        index.insert(static.address, static.size, key)
        result.max_size[key] = static.size
        result.total_allocated[key] = static.size
        result.n_allocs[key] = result.n_allocs.get(key, 0) + 1

    events = sorted(
        trace.events, key=lambda e: (e.time, _PRIORITY.get(type(e), 3))
    )

    for event in events:
        if isinstance(event, AllocEvent):
            key = ObjectKey.dynamic(event.callstack)
            index.insert(event.address, event.size, key)
            result.max_size[key] = max(result.max_size.get(key, 0), event.size)
            result.total_allocated[key] = (
                result.total_allocated.get(key, 0) + event.size
            )
            result.n_allocs[key] = result.n_allocs.get(key, 0) + 1
        elif isinstance(event, FreeEvent):
            index.remove(event.address)
        elif isinstance(event, SampleEvent):
            result.total_samples += 1
            key = index.lookup(event.address)
            if key is not None:
                result.misses[key] = result.misses.get(key, 0) + 1
                if event.latency_cycles is not None:
                    result.latency_sum[key] = (
                        result.latency_sum.get(key, 0) + event.latency_cycles
                    )
            elif (
                stack_base is not None
                and stack_base <= event.address < stack_base + stack_size
            ):
                skey = ObjectKey.stack()
                result.misses[skey] = result.misses.get(skey, 0) + 1
                result.stack_samples += 1
            else:
                result.unresolved_samples += 1

    return result
