"""The Xeon-PMU latency extension (Section III future refinement).

Latency samples flow PMU -> sampler -> trace -> attribution ->
profiles -> the latency-weighted strategies.
"""

import numpy as np
import pytest

from repro.advisor.advisor import HmemAdvisor
from repro.advisor.spec import MemorySpec, TierSpec
from repro.advisor.strategies import (
    LATENCY_STRATEGY_NAMES,
    LatencyDensityStrategy,
    LatencyStrategy,
    MissesStrategy,
    get_strategy,
)
from repro.analysis.objects import ObjectKey
from repro.analysis.paramedir import Paramedir, read_profiles_csv, write_profiles_csv
from repro.analysis.profile import ObjectProfile, ProfileSet
from repro.errors import AdvisorError
from repro.pebs.sampler import PebsSampler
from repro.runtime.callstack import CallStack, Frame
from repro.trace.events import SampleEvent
from repro.trace.tracer import TracerConfig
from repro.units import GIB, MIB


def _profile(name, misses, size, latency):
    key = ObjectKey.dynamic(
        CallStack(frames=(Frame("app", name, "app.c", 1),))
    )
    return ObjectProfile(key=key, sampled_misses=misses, size=size,
                         sampled_latency=latency)


class TestSamplerLatency:
    def test_latencies_attached(self):
        s = PebsSampler(period=2)
        addrs = np.arange(4, dtype=np.uint64)
        times = np.arange(4, dtype=float)
        lats = np.array([100, 200, 300, 400])
        _, _, picked = s.sample_chunk_arrays(addrs, times, lats)
        assert picked.tolist() == [200, 400]

    def test_latencies_optional(self):
        s = PebsSampler(period=1)
        _, _, picked = s.sample_chunk_arrays(
            np.zeros(1, np.uint64), np.zeros(1)
        )
        assert picked is None

    def test_length_checked(self):
        s = PebsSampler(period=1)
        with pytest.raises(ValueError):
            s.sample_chunk_arrays(
                np.zeros(2, np.uint64), np.zeros(2), np.zeros(3)
            )


class TestEventRoundTrip:
    def test_latency_survives_serialisation(self):
        event = SampleEvent(time=1.0, rank=0, address=0x10,
                            latency_cycles=250)
        assert SampleEvent.from_dict(event.to_dict()) == event

    def test_absent_latency_stays_absent(self):
        event = SampleEvent(time=1.0, rank=0, address=0x10)
        data = event.to_dict()
        assert "latency_cycles" not in data
        assert SampleEvent.from_dict(data).latency_cycles is None


class TestTracerModes:
    def test_xeon_phi_mode_drops_latency(self, tiny_app):
        """The paper's Xeon Phi PMU reports no latency: default traces
        must not carry it even if the stream has it."""
        run = tiny_app.run_profiling(seed=0)
        assert all(
            s.latency_cycles is None
            for s in run.trace.to_tracefile().sample_events
        )

    def test_xeon_mode_records_latency(self, tiny_app):
        config = TracerConfig(sampling_period=5, record_latency=True)
        run = tiny_app.run_profiling(seed=0, tracer_config=config)
        latencies = [
            s.latency_cycles for s in run.trace.to_tracefile().sample_events
        ]
        assert all(l is not None and l > 0 for l in latencies)
        # random-pattern objects cost more than sequential ones.
        assert min(latencies) < max(latencies)


class TestLatencyAttribution:
    def test_profiles_carry_latency(self, tiny_app):
        config = TracerConfig(sampling_period=5, record_latency=True)
        run = tiny_app.run_profiling(seed=0, tracer_config=config)
        profiles = Paramedir().analyze(run.trace)
        hot = next(p for p in profiles if "setup@tinyapp.c:9" in p.key.label)
        assert hot.sampled_latency > 0
        # hot_vector is random -> 280 cycles/miss.
        assert hot.mean_latency_cycles == pytest.approx(280, rel=0.01)

    def test_csv_round_trips_latency(self, tiny_app, tmp_path):
        config = TracerConfig(sampling_period=5, record_latency=True)
        run = tiny_app.run_profiling(seed=0, tracer_config=config)
        profiles = Paramedir().analyze(run.trace)
        path = tmp_path / "lat.csv"
        write_profiles_csv(profiles, path)
        clone = read_profiles_csv(path)
        assert sum(p.sampled_latency for p in clone) == sum(
            p.sampled_latency for p in profiles
        )


class TestLatencyStrategies:
    PROFILES = [
        _profile("stream", misses=100, size=1000, latency=100 * 150),
        _profile("gather", misses=100, size=1000, latency=100 * 300),
        _profile("tiny_gather", misses=20, size=10, latency=20 * 300),
    ]

    def test_latency_breaks_miss_ties(self):
        """Equal misses, different cost: the gather ranks first."""
        order = LatencyStrategy().order(self.PROFILES)
        assert order[0].key.label.startswith("gather")
        # The plain miss ranking cannot tell them apart.
        miss_order = MissesStrategy().order(self.PROFILES)
        assert {miss_order[0].sampled_misses, miss_order[1].sampled_misses} == {100}

    def test_latency_threshold(self):
        order = LatencyStrategy(threshold_pct=40.0).order(self.PROFILES)
        assert [p.key.label.split("@")[0] for p in order] == ["gather"]

    def test_latency_density(self):
        order = LatencyDensityStrategy().order(self.PROFILES)
        assert order[0].key.label.startswith("tiny_gather")

    def test_requires_latency_samples(self):
        no_latency = [_profile("x", 10, 100, latency=0)]
        with pytest.raises(AdvisorError):
            LatencyStrategy().order(no_latency)
        with pytest.raises(AdvisorError):
            LatencyDensityStrategy().order(no_latency)

    def test_registry(self):
        for name in LATENCY_STRATEGY_NAMES:
            assert get_strategy(name).name == name
        assert get_strategy("latency-5%").threshold_pct == 5.0

    def test_advisor_packs_with_latency_strategy(self):
        spec = MemorySpec(
            tiers=(
                TierSpec("MCDRAM", budget=4096, relative_performance=5.0),
                TierSpec("DDR", budget=GIB, relative_performance=1.0),
            )
        )
        profiles = ProfileSet(profiles=list(self.PROFILES))
        report = HmemAdvisor(spec).advise(profiles, LatencyStrategy())
        assert report.strategy == "latency-0%"
        assert report.entries[0].key.label.startswith("gather")
