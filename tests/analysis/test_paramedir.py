"""Paramedir substitute: trace analysis and CSV round-trip."""

import pytest

from repro._oracles import attribute_samples
from repro.analysis.config import AnalysisConfig
from repro.analysis.objects import ObjectKey
from repro.analysis.paramedir import (
    Paramedir,
    read_profiles_csv,
    write_profiles_csv,
)
from repro.analysis.profile import ObjectProfile, ProfileSet
from repro.errors import AttributionError
from repro.runtime.callstack import CallStack, Frame
from repro.trace.columnar import ColumnarTrace
from repro.trace.events import AllocEvent, SampleEvent
from repro.trace.tracefile import TraceFile


def _cs(name):
    return CallStack(
        frames=(
            Frame("app", name, "app.c", 9),
            Frame("app", "main", "app.c", 1),
        )
    )


class TestAnalyze:
    def test_end_to_end_counts(self):
        trace = TraceFile(application="demo", sampling_period=7)
        trace.append(AllocEvent(0.0, 0, 0x1000, 256, _cs("site_a")))
        trace.append(AllocEvent(0.0, 0, 0x2000, 512, _cs("site_b")))
        for i in range(3):
            trace.append(SampleEvent(0.1 + i * 0.1, 0, 0x1000 + i))
        trace.append(SampleEvent(0.5, 0, 0x2000))
        profiles = Paramedir().analyze(trace)
        assert profiles.application == "demo"
        assert profiles.sampling_period == 7
        a = profiles.get(ObjectKey.dynamic(_cs("site_a")))
        assert a.sampled_misses == 3
        assert a.estimated_misses == 21

    def test_ordering_by_misses(self):
        trace = TraceFile(application="demo")
        trace.append(AllocEvent(0.0, 0, 0x1000, 256, _cs("cold")))
        trace.append(AllocEvent(0.0, 0, 0x2000, 512, _cs("hot")))
        for i in range(5):
            trace.append(SampleEvent(0.1, 0, 0x2000 + i))
        profiles = Paramedir().analyze(trace)
        assert profiles.profiles[0].key.label.startswith("hot")


#: The two attribution engines: the vector kernel Paramedir runs, and
#: the per-event replay in :mod:`repro._oracles` it is proven against.
_KERNELS = ("vector", "oracle")


def _analyze(engine, trace, config=None):
    """Per-object profiles from one engine; the oracle attributes the
    same narrowed trace Paramedir would."""
    paramedir = Paramedir(config)
    if engine == "vector":
        return paramedir.analyze(trace)
    if config is not None:
        trace = paramedir._narrow(trace)
    if isinstance(trace, ColumnarTrace):
        trace = trace.to_tracefile()
    return ProfileSet.from_attribution(
        attribute_samples(trace),
        sampling_period=trace.sampling_period,
        application=trace.application,
    )


class TestEngines:
    def _trace(self):
        trace = TraceFile(application="demo", ranks=2, sampling_period=7)
        trace.append(AllocEvent(0.0, 0, 0x1000, 256, _cs("site_a")))
        trace.append(AllocEvent(0.0, 1, 0x2000, 512, _cs("site_b")))
        for i in range(4):
            trace.append(SampleEvent(0.1 + i * 0.1, i % 2, 0x1000 + i))
        trace.append(SampleEvent(0.6, 1, 0x2000))
        return trace

    def test_vector_is_default_and_equals_oracle(self):
        trace = self._trace()
        assert Paramedir().analyze(trace) == _analyze("oracle", trace)

    @pytest.mark.parametrize("engine", _KERNELS)
    def test_columnar_input_accepted(self, engine):
        trace = self._trace()
        cols = ColumnarTrace.from_tracefile(trace)
        assert _analyze(engine, cols) == _analyze(engine, trace)

    @pytest.mark.parametrize("engine", _KERNELS)
    def test_narrowing_agrees_across_forms(self, engine):
        """Config-driven sample narrowing (time window + ranks) must
        give one answer regardless of engine or trace form."""
        trace = self._trace()
        config = AnalysisConfig(time_window=(0.1, 0.5), ranks=[0])
        want = _analyze("oracle", trace, config)
        got = _analyze(engine, ColumnarTrace.from_tracefile(trace), config)
        assert got == want
        # Narrowing never filters allocations, only samples.
        assert {p.key for p in want} <= {
            ObjectKey.dynamic(_cs("site_a")),
            ObjectKey.dynamic(_cs("site_b")),
        }


class TestCsv:
    def _profiles(self):
        return ProfileSet(
            profiles=[
                ObjectProfile(key=ObjectKey.dynamic(_cs("x")),
                              sampled_misses=12, size=4096, n_allocs=3,
                              total_allocated=12288, sampling_period=7),
                ObjectProfile(key=ObjectKey.static("grid"),
                              sampled_misses=4, size=100,
                              sampling_period=7),
            ],
            sampling_period=7,
        )

    def test_round_trip(self, tmp_path):
        path = tmp_path / "paramedir.csv"
        write_profiles_csv(self._profiles(), path)
        clone = read_profiles_csv(path)
        assert len(clone) == 2
        original = {p.key: p for p in self._profiles()}
        for p in clone:
            assert p == original[p.key]

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("foo,bar\n1,2\n")
        with pytest.raises(AttributionError):
            read_profiles_csv(path)

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_profiles_csv(self._profiles(), path)
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace("12", "not-a-number", 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(AttributionError):
            read_profiles_csv(path)

    def test_legacy_header_without_latency_accepted(self, tmp_path):
        """Reports from before the ``sampled_latency`` column existed
        still load, with latency defaulting to 0."""
        path = tmp_path / "current.csv"
        write_profiles_csv(self._profiles(), path)
        legacy = tmp_path / "legacy.csv"
        legacy.write_text(
            "\n".join(
                line.rsplit(",", 1)[0]
                for line in path.read_text().splitlines()
            )
            + "\n"
        )
        clone = read_profiles_csv(legacy)
        assert len(clone) == 2
        assert all(p.sampled_latency == 0 for p in clone)
        original = {p.key: p for p in self._profiles()}
        for p in clone:
            assert p.sampled_misses == original[p.key].sampled_misses
            assert p.size == original[p.key].size

    def test_reordered_header_still_rejected(self, tmp_path):
        path = tmp_path / "reordered.csv"
        write_profiles_csv(self._profiles(), path)
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        header[0], header[1] = header[1], header[0]
        lines[0] = ",".join(header)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(AttributionError):
            read_profiles_csv(path)

    def test_mixed_sampling_periods_rejected(self, tmp_path):
        profiles = ProfileSet(
            profiles=[
                ObjectProfile(key=ObjectKey.static("a"), sampled_misses=1,
                              size=10, sampling_period=7),
                ObjectProfile(key=ObjectKey.static("b"), sampled_misses=2,
                              size=20, sampling_period=13),
            ],
            sampling_period=7,
        )
        path = tmp_path / "mixed.csv"
        write_profiles_csv(profiles, path)
        with pytest.raises(AttributionError, match="sampling_period"):
            read_profiles_csv(path)

    def test_empty_file_with_header_defaults_period(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_profiles_csv(
            ProfileSet(profiles=[], sampling_period=7), path
        )
        clone = read_profiles_csv(path)
        assert len(clone) == 0
        assert clone.sampling_period == 1
