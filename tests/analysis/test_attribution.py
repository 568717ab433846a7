"""Time-aware sample-to-object attribution."""

import pytest

from repro._oracles import attribute_samples
from repro.analysis.attribution import stack_region_of
from repro.analysis.objects import ObjectKey
from repro.runtime.callstack import CallStack, Frame
from repro.trace.events import (
    AllocEvent,
    FreeEvent,
    SampleEvent,
    StaticVarRecord,
)
from repro.trace.tracefile import TraceFile


def _cs(name: str) -> CallStack:
    return CallStack(frames=(Frame("app", name, "app.c", 1),))


def _key(name: str) -> ObjectKey:
    return ObjectKey.dynamic(_cs(name))


def _trace(**metadata):
    trace = TraceFile(application="t")
    trace.metadata.update(metadata)
    return trace


class TestBasics:
    def test_sample_inside_allocation(self):
        trace = _trace()
        trace.append(AllocEvent(0.0, 0, 0x1000, 100, _cs("site")))
        trace.append(SampleEvent(0.5, 0, 0x1010))
        result = attribute_samples(trace)
        assert result.misses[_key("site")] == 1
        assert result.total_samples == 1

    def test_sample_outside_unresolved(self):
        trace = _trace()
        trace.append(AllocEvent(0.0, 0, 0x1000, 100, _cs("site")))
        trace.append(SampleEvent(0.5, 0, 0x9000))
        result = attribute_samples(trace)
        assert result.unresolved_samples == 1

    def test_sample_after_free_unresolved(self):
        trace = _trace()
        trace.append(AllocEvent(0.0, 0, 0x1000, 100, _cs("site")))
        trace.append(FreeEvent(0.4, 0, 0x1000))
        trace.append(SampleEvent(0.5, 0, 0x1010))
        result = attribute_samples(trace)
        assert result.unresolved_samples == 1
        assert result.misses == {}

    def test_stack_samples_bucketed(self):
        trace = _trace(stack_region=[0x7000, 0x1000])
        trace.append(SampleEvent(0.1, 0, 0x7100))
        result = attribute_samples(trace)
        assert result.stack_samples == 1
        assert result.misses[ObjectKey.stack()] == 1

    def test_static_samples(self):
        trace = _trace()
        trace.statics.append(
            StaticVarRecord(name="grid", rank=0, address=0x500, size=0x100)
        )
        trace.append(SampleEvent(0.1, 0, 0x520))
        result = attribute_samples(trace)
        assert result.misses[ObjectKey.static("grid")] == 1


class TestAddressReuse:
    def test_reused_address_attributed_by_time(self):
        """The same address belongs to different objects over time —
        exactly what the free-list reuse of the posix allocator does."""
        trace = _trace()
        trace.append(AllocEvent(0.0, 0, 0x1000, 100, _cs("first")))
        trace.append(SampleEvent(0.1, 0, 0x1010))
        trace.append(FreeEvent(0.2, 0, 0x1000))
        trace.append(AllocEvent(0.3, 0, 0x1000, 100, _cs("second")))
        trace.append(SampleEvent(0.4, 0, 0x1010))
        result = attribute_samples(trace)
        assert result.misses[_key("first")] == 1
        assert result.misses[_key("second")] == 1

    def test_tie_break_alloc_before_sample(self):
        trace = _trace()
        trace.append(SampleEvent(1.0, 0, 0x1010))
        trace.append(AllocEvent(1.0, 0, 0x1000, 100, _cs("site")))
        result = attribute_samples(trace)
        assert result.misses[_key("site")] == 1

    def test_tie_break_free_after_sample(self):
        trace = _trace()
        trace.append(AllocEvent(0.0, 0, 0x1000, 100, _cs("site")))
        trace.append(FreeEvent(1.0, 0, 0x1000))
        trace.append(SampleEvent(1.0, 0, 0x1010))
        result = attribute_samples(trace)
        assert result.misses[_key("site")] == 1


class TestSiteAggregation:
    def test_max_size_per_site(self):
        """Looped allocations report the maximum requested size."""
        trace = _trace()
        trace.append(AllocEvent(0.0, 0, 0x1000, 100, _cs("loop")))
        trace.append(FreeEvent(0.1, 0, 0x1000))
        trace.append(AllocEvent(0.2, 0, 0x1000, 300, _cs("loop")))
        trace.append(FreeEvent(0.3, 0, 0x1000))
        trace.append(AllocEvent(0.4, 0, 0x1000, 200, _cs("loop")))
        result = attribute_samples(trace)
        key = _key("loop")
        assert result.max_size[key] == 300
        assert result.total_allocated[key] == 600
        assert result.n_allocs[key] == 3

    def test_samples_total_is_conserved(self):
        trace = _trace(stack_region=[0x7000, 0x1000])
        trace.append(AllocEvent(0.0, 0, 0x1000, 100, _cs("a")))
        trace.append(SampleEvent(0.1, 0, 0x1000))
        trace.append(SampleEvent(0.2, 0, 0x7010))
        trace.append(SampleEvent(0.3, 0, 0xFFFF))
        result = attribute_samples(trace)
        attributed = sum(result.misses.values())
        assert attributed + result.unresolved_samples == result.total_samples

    def test_miss_share(self):
        trace = _trace()
        trace.append(AllocEvent(0.0, 0, 0x1000, 100, _cs("a")))
        trace.append(SampleEvent(0.1, 0, 0x1000))
        trace.append(SampleEvent(0.2, 0, 0x1001))
        result = attribute_samples(trace)
        assert result.miss_share(_key("a")) == pytest.approx(1.0)
        assert result.miss_share(_key("b")) == 0.0


class TestStackRegionMetadata:
    def test_stack_region_of_accepts_list_and_tuple(self):
        assert stack_region_of({"stack_region": [0x7000, 64]}) == (0x7000, 64)
        assert stack_region_of({"stack_region": (0x7000, 64)}) == (0x7000, 64)

    def test_stack_region_of_rejects_damage(self):
        assert stack_region_of({}) == (None, None)
        assert stack_region_of({"stack_region": None}) == (None, None)
        assert stack_region_of({"stack_region": [1]}) == (None, None)
        assert stack_region_of({"stack_region": [1, 2, 3]}) == (None, None)
        assert stack_region_of({"stack_region": ["a", "b"]}) == (None, None)
        assert stack_region_of({"stack_region": "0x7000"}) == (None, None)

    def test_load_then_attribute_equals_in_memory(self, tmp_path):
        """Regression: the tracer stores ``stack_region`` as a tuple;
        a JSON round-trip turns it into a list — the stack bucket must
        survive the persistence hop."""
        trace = _trace(stack_region=(0x7000, 0x1000))
        trace.append(AllocEvent(0.0, 0, 0x1000, 100, _cs("a")))
        trace.append(SampleEvent(0.1, 0, 0x1010))
        trace.append(SampleEvent(0.2, 0, 0x7100))
        in_memory = attribute_samples(trace)
        assert in_memory.stack_samples == 1
        path = tmp_path / "run.trace"
        trace.save(path)
        loaded = attribute_samples(TraceFile.load(path))
        assert loaded == in_memory
