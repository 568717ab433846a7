"""Scalar loops the vectorised paths replaced, kept verbatim: the
sampler's countdown, the replay predictor's promoted-miss share and
the linear-rescan ``windowed_cost``, plus the synthetic scoring
workload the last one is compared on."""

from __future__ import annotations

import numpy as np

from repro.advisor.report import PlacementReport
from repro.analysis.objects import ObjectKind
from repro.analysis.profile import ProfileSet


def sample_reference(
    period: int, addresses: np.ndarray
) -> list[int]:
    """Per-event countdown loop — the sampler's scalar oracle."""
    countdown = period
    picks = []
    for i in range(addresses.size):
        countdown -= 1
        if countdown == 0:
            picks.append(i)
            countdown = period
    return picks


def predict_share_reference(
    profiles: ProfileSet, report: PlacementReport
) -> float:
    """Scalar replay: the loop the vectorised predictor replaced."""
    fraction_by_key = {
        e.key.identity: e.fraction
        for e in report.entries
        if e.key.kind == ObjectKind.DYNAMIC
    }
    promoted = sum(
        p.sampled_misses * fraction_by_key.get(p.key.identity, 0.0)
        for p in profiles.dynamic_profiles
    )
    return promoted / profiles.total_samples


def windowed_cost_reference(app, machine, profiling, schedule):
    """The pre-bisect ``windowed_cost``: O(windows x schedule) linear
    rescans. Kept verbatim as the oracle the bisect path must match
    bit-for-bit (same accumulation order, so equality is exact)."""
    from repro.machine.performance import ExecutionModel, PlacedTraffic
    from repro.placement.policies import _total_traffic_bytes

    truth = profiling.ground_truth
    total = _total_traffic_bytes(app, machine)
    cal = app.calibration
    lookup = sorted(schedule)
    fast = 0.0
    if truth.total_misses > 0:
        for window in truth.windows:
            misses = window.total_misses
            if misses == 0:
                continue
            midpoint = (window.t0 + window.t1) / 2.0
            active = frozenset()
            for t0, _, sites in lookup:
                if t0 <= midpoint:
                    active = sites
                else:
                    break
            fast_misses = sum(
                count
                for site, count in window.misses_by_site.items()
                if site in active
            )
            fast += total * (misses / truth.total_misses) * (fast_misses / misses)
    traffic = PlacedTraffic(
        by_tier={
            machine.fast_tier.name: fast,
            machine.slow_tier.name: total - fast,
        }
    )
    return ExecutionModel(machine).cost(
        traffic, compute_time=cal.compute_time, work=cal.work
    )


def make_scoring_workload(n_windows: int, n_entries: int, seed: int):
    """Synthetic truth timeline + placement schedule for the scorer."""
    from types import SimpleNamespace

    from repro.apps.base import WindowTruth
    from repro.apps.registry import get_app

    rng = np.random.default_rng(seed)
    app = get_app("phaseshift")
    horizon = app.calibration.ddr_time
    site_pool = [o.name for o in app.objects if not o.static]
    edges = np.linspace(0.0, horizon, n_windows + 1)
    windows = [
        WindowTruth(
            t0=float(edges[i]),
            t1=float(edges[i + 1]),
            misses_by_site={
                site: int(count)
                for site, count in zip(
                    site_pool,
                    rng.integers(0, 500, size=len(site_pool)),
                )
            },
        )
        for i in range(n_windows)
    ]
    total = sum(w.total_misses for w in windows)
    truth = SimpleNamespace(windows=windows, total_misses=total)
    starts = np.sort(
        rng.uniform(0.0, horizon, size=n_entries - 1)
    )
    schedule = [(0.0, float(starts[0]), frozenset(site_pool[:1]))]
    for i, t0 in enumerate(starts):
        t1 = float(starts[i + 1]) if i + 1 < starts.size else horizon
        picks = rng.choice(
            len(site_pool),
            size=int(rng.integers(0, len(site_pool) + 1)),
            replace=False,
        )
        schedule.append(
            (float(t0), t1, frozenset(site_pool[int(p)] for p in picks))
        )
    return app, SimpleNamespace(ground_truth=truth), schedule
