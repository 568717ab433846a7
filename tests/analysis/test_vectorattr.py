"""Vectorised attribution: bit-for-bit equality with the oracle."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._oracles import attribute_samples
from repro.analysis.objects import ObjectKey
from repro.analysis.vectorattr import attribute_samples_vector, sample_owners
from repro.runtime.callstack import CallStack, Frame
from repro.trace.columnar import ColumnarTrace
from repro.trace.events import (
    AllocEvent,
    FreeEvent,
    PhaseEvent,
    SampleEvent,
    StaticVarRecord,
)
from repro.trace.tracefile import TraceFile


def _cs(name: str, module: str = "app") -> CallStack:
    return CallStack(frames=(Frame(module, name, "app.c", 1),))


class TestUnits:
    def test_accepts_both_trace_forms(self):
        trace = TraceFile()
        trace.append(AllocEvent(0.0, 0, 0x1000, 100, _cs("a")))
        trace.append(SampleEvent(0.5, 0, 0x1010))
        want = attribute_samples(trace)
        assert attribute_samples_vector(trace) == want
        assert (
            attribute_samples_vector(ColumnarTrace.from_tracefile(trace))
            == want
        )

    def test_empty_trace(self):
        assert attribute_samples_vector(TraceFile()) == attribute_samples(
            TraceFile()
        )

    def test_module_identity_merging(self):
        """Two interned callstacks that differ only in module collapse
        to one ObjectKey — the oracle's identity semantics."""
        trace = TraceFile()
        trace.append(AllocEvent(0.0, 0, 0x1000, 100, _cs("a", module="m1")))
        trace.append(AllocEvent(0.1, 0, 0x2000, 100, _cs("a", module="m2")))
        trace.append(SampleEvent(0.5, 0, 0x1010))
        trace.append(SampleEvent(0.6, 0, 0x2010))
        want = attribute_samples(trace)
        got = attribute_samples_vector(trace)
        assert got == want
        assert got.n_allocs[ObjectKey.dynamic(_cs("a"))] == 2

    def test_duplicate_static_names(self):
        """Last same-name static wins the size fields but every record
        counts an allocation (the oracle's exact bookkeeping)."""
        trace = TraceFile()
        trace.statics.append(StaticVarRecord("g", 0, 0x100, 16))
        trace.statics.append(StaticVarRecord("g", 0, 0x200, 64))
        want = attribute_samples(trace)
        got = attribute_samples_vector(trace)
        assert got == want
        assert got.max_size[ObjectKey.static("g")] == 64
        assert got.n_allocs[ObjectKey.static("g")] == 2

    def test_zero_latency_counts_as_present(self):
        trace = TraceFile()
        trace.append(AllocEvent(0.0, 0, 0x1000, 100, _cs("a")))
        trace.append(SampleEvent(0.5, 0, 0x1010, latency_cycles=0))
        got = attribute_samples_vector(trace)
        assert got == attribute_samples(trace)
        assert got.latency_sum == {ObjectKey.dynamic(_cs("a")): 0}

    def test_phase_events_ignored(self):
        trace = TraceFile()
        trace.append(PhaseEvent(0.0, 0, "loop"))
        trace.append(AllocEvent(0.0, 0, 0x1000, 100, _cs("a")))
        trace.append(SampleEvent(0.0, 0, 0x1010))
        assert attribute_samples_vector(trace) == attribute_samples(trace)


class TestErrorParity:
    def test_overlapping_alloc_same_error(self):
        trace = TraceFile()
        trace.append(AllocEvent(0.0, 0, 100, 50, _cs("a")))
        trace.append(AllocEvent(1.0, 0, 120, 10, _cs("b")))
        with pytest.raises(ValueError, match="overlaps a live range") as want:
            attribute_samples(trace)
        with pytest.raises(ValueError, match="overlaps a live range") as got:
            attribute_samples_vector(trace)
        assert str(got.value) == str(want.value)

    def test_unknown_free_same_error(self):
        trace = TraceFile()
        trace.append(FreeEvent(0.0, 0, 0x999))
        with pytest.raises(KeyError) as want:
            attribute_samples(trace)
        with pytest.raises(KeyError) as got:
            attribute_samples_vector(trace)
        assert str(got.value) == str(want.value)

    def test_same_instant_realloc_over_free_is_overlap(self):
        """At one timestamp allocs apply before frees, so reusing a
        just-freed range in the same instant is an overlap — on both
        paths."""
        trace = TraceFile()
        trace.append(AllocEvent(0.0, 0, 0x1000, 100, _cs("a")))
        trace.append(FreeEvent(1.0, 0, 0x1000))
        trace.append(AllocEvent(1.0, 0, 0x1000, 50, _cs("b")))
        with pytest.raises(ValueError, match="overlaps"):
            attribute_samples(trace)
        with pytest.raises(ValueError, match="overlaps"):
            attribute_samples_vector(trace)


# ---------------------------------------------------------------------------
# Property: random alloc/free/sample interleavings
# ---------------------------------------------------------------------------

_SITES = tuple(_cs(f"s{i}", module=f"m{i % 2}") for i in range(4))
_BASES = (1000, 1100, 1200, 1300)


@st.composite
def attribution_traces(draw) -> TraceFile:
    """Valid traces with timestamp ties and address reuse after free.

    Time advances by 0 or 1 per event, so same-instant
    alloc/sample/free runs are common; freed bases are re-allocated
    with different sizes, so samples must be attributed by time.
    """
    events = []
    live: dict[int, int] = {}
    freed: list[tuple[int, int, int]] = []  # (base, size, free time)
    now = 0
    for _ in range(draw(st.integers(0, 50))):
        now += draw(st.integers(0, 1))
        kind = draw(
            st.sampled_from(["alloc", "alloc", "free", "sample", "sample"])
        )
        if kind == "alloc":
            base = draw(st.sampled_from(_BASES))
            size = draw(st.integers(1, 100))
            overlaps_live = any(
                b < base + size and base < b + s for b, s in live.items()
            )
            # A range freed at this same instant still blocks: the
            # free orders after the alloc at equal timestamps.
            overlaps_fresh_free = any(
                b < base + size and base < b + s and t == now
                for b, s, t in freed
            )
            if overlaps_live or overlaps_fresh_free:
                continue
            events.append(
                AllocEvent(float(now), 0, base, size,
                           draw(st.sampled_from(_SITES)))
            )
            live[base] = size
        elif kind == "free" and live:
            base = draw(st.sampled_from(sorted(live)))
            events.append(FreeEvent(float(now), 0, base))
            freed.append((base, live.pop(base), now))
        elif kind == "sample":
            events.append(
                SampleEvent(
                    float(now), 0,
                    draw(st.integers(900, 1500)),
                    draw(st.one_of(st.none(), st.integers(0, 500))),
                )
            )
    statics = (
        [StaticVarRecord("g", 0, 2000, 64)] if draw(st.booleans()) else []
    )
    metadata = (
        {"stack_region": [900, 80]} if draw(st.booleans()) else {}
    )
    return TraceFile(
        application="prop", events=events, statics=statics, metadata=metadata
    )


class TestEquivalenceProperty:
    @settings(max_examples=120, deadline=None)
    @given(trace=attribution_traces())
    def test_vector_equals_oracle(self, trace):
        want = attribute_samples(trace)
        assert attribute_samples_vector(trace) == want
        assert (
            attribute_samples_vector(ColumnarTrace.from_tracefile(trace))
            == want
        )

    @settings(max_examples=120, deadline=None)
    @given(trace=attribution_traces())
    def test_sample_owners_match_like_oracle(self, trace):
        """The per-sample owners the pattern classifier groups by are
        the oracle's hits: same objects, same counts."""
        want = attribute_samples(trace)
        _, owners, keys = sample_owners(trace)
        counts: dict[ObjectKey, int] = {}
        for kid in owners[owners >= 0].tolist():
            counts[keys[kid]] = counts.get(keys[kid], 0) + 1
        assert counts == {
            key: n for key, n in want.misses.items() if key != ObjectKey.stack()
        }
        assert int(np.count_nonzero(owners < 0)) == (
            want.stack_samples + want.unresolved_samples
        )


# ---------------------------------------------------------------------------
# Property: windowed/incremental attribution over arbitrary partitions
# ---------------------------------------------------------------------------


class TestWindowedPartitionProperty:
    """Consuming a trace through an :class:`IncrementalAttributor` in
    ANY partition — event-count windows that split mutation epochs,
    or time windows landing on timestamp ties — must end bit-for-bit
    equal to the one-shot vector pass (and therefore the oracle)."""

    @settings(max_examples=80, deadline=None)
    @given(trace=attribution_traces(), data=st.data())
    def test_event_partition_equals_batch(self, trace, data):
        from repro.analysis.vectorattr import IncrementalAttributor

        batch = attribute_samples_vector(trace)
        attributor = IncrementalAttributor(trace)
        total = attributor.total_events
        while not attributor.exhausted:
            step = data.draw(st.integers(1, max(total, 1)))
            attributor.advance_events(step)
            attributor.result()  # snapshots must not move the cursor
        final = attributor.result()
        assert final == batch
        assert final == attribute_samples(trace)

    @settings(max_examples=80, deadline=None)
    @given(
        trace=attribution_traces(),
        cuts=st.lists(st.integers(0, 60), max_size=6),
    )
    def test_time_partition_equals_batch(self, trace, cuts):
        from repro.analysis.vectorattr import IncrementalAttributor

        columnar = ColumnarTrace.from_tracefile(trace)
        batch = attribute_samples_vector(columnar)
        attributor = IncrementalAttributor(columnar)
        for cut in sorted(cuts):
            attributor.advance_time(float(cut))
            # Every intermediate snapshot equals the batch pass over
            # the strict-past prefix of the trace.
            prefix = columnar.select(columnar.times < float(cut))
            assert attributor.result() == attribute_samples_vector(prefix)
        attributor.advance_all()
        assert attributor.result() == batch


# ---------------------------------------------------------------------------
# Checkpoint/restore of the incremental cursor
# ---------------------------------------------------------------------------


def _demo_trace() -> TraceFile:
    trace = TraceFile(application="demo")
    trace.append(AllocEvent(0.0, 0, 0x1000, 100, _cs("a")))
    trace.append(AllocEvent(0.5, 0, 0x2000, 50, _cs("b")))
    for i in range(10):
        trace.append(SampleEvent(0.1 * i, 0, 0x1000 + 8 * i, i))
    trace.append(FreeEvent(0.7, 0, 0x1000))
    trace.append(SampleEvent(0.9, 0, 0x2010, 3))
    return trace


class TestAttributorState:
    def test_round_trip_mid_stream(self):
        from repro.analysis.vectorattr import IncrementalAttributor

        trace = _demo_trace()
        live = IncrementalAttributor(trace)
        live.advance_events(7)
        restored = IncrementalAttributor.from_state(trace, live.to_state())
        assert restored.consumed_events == live.consumed_events
        assert restored.result() == live.result()
        live.advance_all()
        restored.advance_all()
        assert restored.result() == live.result()
        assert live.result() == attribute_samples_vector(trace)

    def test_state_survives_json(self):
        import json

        from repro.analysis.vectorattr import IncrementalAttributor

        trace = _demo_trace()
        live = IncrementalAttributor(trace)
        live.advance_time(0.6)
        state = json.loads(json.dumps(live.to_state()))
        restored = IncrementalAttributor.from_state(trace, state)
        assert restored.result() == live.result()

    def test_refuses_foreign_trace(self):
        from repro.analysis.vectorattr import IncrementalAttributor
        from repro.errors import AttributionError

        state = IncrementalAttributor(_demo_trace()).to_state()
        other = TraceFile(application="demo")
        other.append(AllocEvent(0.0, 0, 0x1000, 100, _cs("a")))
        with pytest.raises(AttributionError, match="different trace"):
            IncrementalAttributor.from_state(other, state)

    def test_refuses_unknown_version(self):
        from repro.analysis.vectorattr import IncrementalAttributor
        from repro.errors import AttributionError

        trace = _demo_trace()
        state = IncrementalAttributor(trace).to_state()
        state["version"] = 999
        with pytest.raises(AttributionError, match="version"):
            IncrementalAttributor.from_state(trace, state)

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda s: s.pop("consumed"),
            lambda s: s.update(consumed="many"),
            lambda s: s.update(consumed=10_000),
            lambda s: s.update(table_bases={"dtype": "int64", "data": "!"}),
        ],
    )
    def test_refuses_malformed_state(self, mangle):
        from repro.analysis.vectorattr import IncrementalAttributor
        from repro.errors import AttributionError

        trace = _demo_trace()
        attributor = IncrementalAttributor(trace)
        attributor.advance_events(5)
        state = attributor.to_state()
        mangle(state)
        with pytest.raises(AttributionError):
            IncrementalAttributor.from_state(trace, state)

    @settings(max_examples=60, deadline=None)
    @given(trace=attribution_traces(), data=st.data())
    def test_round_trip_property(self, trace, data):
        """Serialise at an arbitrary cursor position, restore, finish:
        bit-identical to the uninterrupted cursor and the batch pass."""
        from repro.analysis.vectorattr import IncrementalAttributor

        columnar = ColumnarTrace.from_tracefile(trace)
        live = IncrementalAttributor(columnar)
        cut = data.draw(st.integers(0, max(live.total_events, 1)))
        live.advance_events(cut)
        restored = IncrementalAttributor.from_state(
            columnar, live.to_state()
        )
        assert restored.result() == live.result()
        live.advance_all()
        restored.advance_all()
        assert restored.result() == live.result()
        assert restored.result() == attribute_samples_vector(columnar)
