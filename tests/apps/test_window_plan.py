"""Window plans: the plan-based miss-stream generator equals the
per-site one it replaced (:mod:`repro._oracles.stream`), window by
window and for whole profiling runs."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._oracles import interleave_reference, window_stream_reference
from repro.apps.base import _round_robin_order
from repro.apps.registry import APP_NAMES, get_app
from repro.trace.columnar import COLUMN_DTYPES
from repro.trace.tracer import TracerConfig
from repro.units import CACHE_LINE

APPS = (*APP_NAMES, "phaseshift")


def _assert_same_array(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype
    np.testing.assert_array_equal(actual, expected)


class TestRoundRobinOrder:
    @settings(max_examples=300, deadline=None)
    @given(
        sizes=st.lists(st.integers(0, 40), min_size=1, max_size=7),
        chunks=st.integers(1, 10),
    )
    def test_matches_interleave(self, sizes, chunks):
        """Sizes below ``chunks`` make ``array_split`` yield empty
        pieces; zero sizes are dropped by the reference merge."""
        arrays = []
        start = 0
        for size in sizes:
            arrays.append(np.arange(start, start + size, dtype=np.int64))
            start += size
        expected = interleave_reference(arrays, chunks)
        order = _round_robin_order(sizes, chunks)
        np.testing.assert_array_equal(order, expected)

    @pytest.mark.parametrize("size", [0, 1, 7, 8, 9, 100])
    def test_single_array_keeps_its_order(self, size):
        np.testing.assert_array_equal(
            _round_robin_order([size]), np.arange(size)
        )


def _touch_sets(app, rng):
    per_iter = app._misses_per_iteration()
    touch_sets = {
        spec.name: app._touch_offsets(spec, max(per_iter[spec.name], 1), rng)
        for spec in app.objects
    }
    stack_touch = (
        rng.integers(
            0, 1024, size=max(1, app._stack_misses_per_iteration()),
            dtype=np.int64,
        )
        * CACHE_LINE
    )
    return touch_sets, stack_touch


@st.composite
def windows(draw):
    """A random window of a registered app: any subset of its sites
    present (none, one, all), at random page-aligned bases."""
    app = get_app(draw(st.sampled_from(APPS)))
    phase = draw(st.sampled_from(app.phases))
    seed = draw(st.integers(0, 2**32 - 1))
    base = st.integers(1, 2**36).map(lambda page: page * 4096)

    def sites(static: bool) -> dict[str, int]:
        names = [o.name for o in app.objects if o.static == static]
        if not names:
            return {}
        chosen = draw(st.lists(st.sampled_from(names), unique=True))
        return {name: draw(base) for name in chosen}

    t0 = draw(st.floats(0.0, 1e3))
    t1 = t0 + draw(st.floats(1e-3, 1e2))
    return app, phase, seed, sites(False), sites(True), draw(base), t0, t1


class TestWindowStream:
    @settings(max_examples=200, deadline=None)
    @given(window=windows(), rebased=st.integers(1, 2**20))
    def test_matches_reference(self, window, rebased):
        app, phase, seed, live, statics, stack_base, t0, t1 = window
        touch_sets, stack_touch = _touch_sets(app, np.random.default_rng(seed))
        plans: dict = {}
        # The second window reuses the first's plan with moved bases.
        for shift in (0, rebased * 4096):
            moved = {name: b + shift for name, b in live.items()}
            actual = app.generate_window_stream(
                phase, t0, t1, moved, statics, stack_base + shift,
                touch_sets, stack_touch, plans,
            )
            expected = window_stream_reference(
                app, phase, t0, t1, app.window_live(t0, moved), statics,
                stack_base + shift, touch_sets, stack_touch,
            )
            addresses, times, counts, latencies = actual
            _assert_same_array(addresses, expected[0])
            _assert_same_array(times, expected[1])
            assert list(counts.items()) == list(expected[2].items())
            _assert_same_array(latencies, expected[3])
        assert len(plans) == 1

    @pytest.mark.parametrize("app_name", ["hpcg", "snap"])
    def test_stack_only_windows(self, app_name):
        """No heap or static site present: the stack alone, or nothing
        in a phase without stack misses (SNAP's stack is in one
        phase)."""
        app = get_app(app_name)
        touch_sets, stack_touch = _touch_sets(app, np.random.default_rng(0))
        for phase in app.phases:
            actual = app.generate_window_stream(
                phase, 1.0, 2.0, {}, {}, 1 << 30, touch_sets, stack_touch,
                {},
            )
            expected = window_stream_reference(
                app, phase, 1.0, 2.0, {}, {}, 1 << 30, touch_sets,
                stack_touch,
            )
            for got, want in zip(actual, expected):
                if isinstance(want, dict):
                    assert got == want
                else:
                    _assert_same_array(got, want)

    def test_cached_columns_are_read_only(self, tiny_app):
        touch_sets, stack_touch = _touch_sets(
            tiny_app, np.random.default_rng(0)
        )
        plans: dict = {}
        _, _, counts, latencies = tiny_app.generate_window_stream(
            tiny_app.phases[0], 0.0, 1.0, {}, {}, 1 << 30, touch_sets,
            stack_touch, plans,
        )
        with pytest.raises(ValueError):
            latencies[:1] = 0
        counts.clear()
        (plan,) = plans.values()
        assert plan.counts


def _profile(app, seed, latency):
    return app.run_profiling(
        seed=seed,
        tracer_config=TracerConfig(
            sampling_period=app.sampling_period, record_latency=latency
        ),
    )


@pytest.mark.parametrize("latency", [False, True], ids=["nolat", "lat"])
@pytest.mark.parametrize("seed", [0, 1, 7919])
@pytest.mark.parametrize("app_name", APPS)
def test_profiling_run_equals_reference_run(monkeypatch, app_name, seed,
                                             latency):
    """A whole run, column for column and truth field for truth field,
    equals the run the per-site generator drives."""
    app = get_app(app_name)
    actual = _profile(app, seed, latency)

    def reference(phase, t0, t1, live, statics, stack_base, touch_sets,
                  stack_touch, plans):
        return window_stream_reference(
            app, phase, t0, t1, app.window_live(t0, live), statics,
            stack_base, touch_sets, stack_touch,
        )

    monkeypatch.setattr(app, "generate_window_stream", reference)
    expected = _profile(app, seed, latency)

    for name in COLUMN_DTYPES:
        _assert_same_array(
            getattr(actual.trace, name), getattr(expected.trace, name)
        )
    assert actual.trace.callstacks == expected.trace.callstacks
    assert actual.trace.functions == expected.trace.functions
    assert actual.trace.allocators == expected.trace.allocators
    assert actual.trace.metadata == expected.trace.metadata
    for field in dataclasses.fields(actual.ground_truth):
        got = getattr(actual.ground_truth, field.name)
        want = getattr(expected.ground_truth, field.name)
        if isinstance(want, np.ndarray):
            _assert_same_array(got, want)
        elif isinstance(want, dict):
            assert list(got.items()) == list(want.items())
        else:
            assert got == want
