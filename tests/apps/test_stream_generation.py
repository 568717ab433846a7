"""Miss-stream generation: touch sets, bounds, phases, latencies."""

import numpy as np
import pytest

from repro.apps.base import STACK_LATENCY_CYCLES, AccessPattern
from repro.units import CACHE_LINE


class TestTouchOffsets:
    def test_sequential_within_hot_span(self, tiny_app):
        spec = tiny_app.find_object("big_matrix")
        rng = np.random.default_rng(0)
        offsets = tiny_app._touch_offsets(spec, 500, rng)
        assert offsets.size == 500
        assert offsets.min() >= 0
        assert offsets.max() < tiny_app.scaled(spec.size)

    def test_sequential_line_aligned(self, tiny_app):
        spec = tiny_app.find_object("big_matrix")
        rng = np.random.default_rng(0)
        offsets = tiny_app._touch_offsets(spec, 100, rng)
        assert (offsets % CACHE_LINE == 0).all()

    def test_random_within_hot_span(self, tiny_app):
        spec = tiny_app.find_object("hot_vector")
        rng = np.random.default_rng(0)
        offsets = tiny_app._touch_offsets(spec, 2000, rng)
        span = int(tiny_app.scaled(spec.size) * spec.pattern.hot_fraction)
        assert offsets.max() < span
        assert (offsets % CACHE_LINE == 0).all()

    def test_hot_fraction_caps_span(self, tiny_app):
        spec = tiny_app.find_object("lookup_table")  # hot_fraction 0.5
        rng = np.random.default_rng(0)
        offsets = tiny_app._touch_offsets(spec, 5000, rng)
        half = int(tiny_app.scaled(spec.size) * 0.5)
        assert offsets.max() < half


class TestGroundTruthStream:
    def test_addresses_land_inside_owning_objects(self, tiny_profiling):
        """Every generated miss address belongs to the region of the
        object it was attributed to — the consistency the whole
        attribution pipeline depends on."""
        process = tiny_profiling.process
        truth = tiny_profiling.ground_truth
        static_regions = [
            (region.base, region.base + region.size)
            for region in process.statics.values()
        ]
        heap_items = process.posix.live.items()
        stack = process.stack_region
        in_some_region = 0
        for address in truth.addresses[:2000].tolist():
            if stack.contains(address):
                in_some_region += 1
            elif any(b <= address < e for b, e, _ in heap_items):
                in_some_region += 1
            elif any(lo <= address < hi for lo, hi in static_regions):
                in_some_region += 1
        # Churn objects are freed at the end of their phase, so a
        # fraction of historical addresses is no longer live; but the
        # vast majority must fall in live regions.
        assert in_some_region / 2000 > 0.85

    def test_latency_sums_match_declared_costs(self, tiny_app):
        run = tiny_app.run_profiling(seed=0)
        truth = run.ground_truth
        for spec in tiny_app.objects:
            n = truth.misses_by_site.get(spec.name, 0)
            if n == 0:
                continue
            assert truth.latency_by_site[spec.name] == pytest.approx(
                n * spec.pattern.latency_cycles
            )
        n_stack = truth.misses_by_site.get("<stack>", 0)
        if n_stack:
            assert truth.latency_by_site["<stack>"] == pytest.approx(
                n_stack * STACK_LATENCY_CYCLES
            )

    def test_phase_scoping_respected(self, tiny_app):
        """Objects declared for one phase never emit misses in bins of
        another phase (checked via sample timestamps vs phase spans)."""
        run = tiny_app.run_profiling(seed=0)
        trace = run.trace.to_tracefile()
        # big_matrix only touched in "compute" (70 % head of each
        # iteration); scratch churns in compute too. exchange-phase
        # samples must all come from objects touched in exchange.
        phases = sorted(trace.phase_events, key=lambda e: e.time)
        # build exchange windows
        windows = []
        for a, b in zip(phases, phases[1:]):
            if a.function == "exchange":
                windows.append((a.time, b.time))
        if phases and phases[-1].function == "exchange":
            windows.append((phases[-1].time, float("inf")))
        assert windows
        # the matrix's region:
        matrix_addr = None
        for e in trace.alloc_events:
            if e.callstack.leaf.function == "alloc_matrix":
                matrix_addr = (e.address, e.address + e.size)
        assert matrix_addr
        for s in trace.sample_events:
            in_exchange = any(t0 <= s.time < t1 for t0, t1 in windows)
            if in_exchange:
                assert not (
                    matrix_addr[0] <= s.address < matrix_addr[1]
                ), "compute-only object sampled during exchange"


class TestPatternDefaults:
    def test_latency_defaults_by_kind(self):
        assert AccessPattern("sequential").latency_cycles == 160
        assert AccessPattern("random").latency_cycles == 280
        assert AccessPattern(
            "random", mean_latency_cycles=99
        ).latency_cycles == 99
