"""The shared retry policy: one backoff schedule for the sweep and the
online daemon, pinned to the values both computed on their own."""

import pytest

from repro.apps.registry import get_app
from repro.online import OnlineConfig, OnlineDaemon
from repro.parallel.sweep import SweepConfig, SweepExecutor
from repro.pipeline.framework import HybridMemoryFramework
from repro.retry import backoff_delay, seeded_unit
from repro.units import MIB

#: Sweep delays for attempts 0-5 at base 0.1 s, seed 3, for one cell.
SWEEP_DELAYS = [
    0.1, 0.2279539005183769, 0.2854125562219828, 0.19680063982429025,
    0.4503544160667664, 0.6142964434438242,
]

#: Daemon delays for attempts 0-5 at base 0.05 s, seed 7, for one
#: promotion of ``site.c:12`` in window 4.
DAEMON_DELAYS = [
    0.05, 0.12007046045640513, 0.21298386974810807, 0.22750235122652934,
    0.5233663544746326, 0.9390409094152445,
]


def test_sweep_backoff_schedule_is_pinned():
    executor = SweepExecutor(config=SweepConfig(backoff_seconds=0.1, seed=3))
    token = ("tinyapp", ("grid", "density", 32 * MIB))
    assert [executor._backoff(n, token) for n in range(6)] == SWEEP_DELAYS


def test_daemon_backoff_schedule_is_pinned():
    framework = HybridMemoryFramework(get_app("phaseshift"), seed=7)
    daemon = OnlineDaemon(
        framework, 32 * MIB, OnlineConfig(migration_backoff_seconds=0.05)
    )
    delays = [
        daemon._retry_delay(n, "site.c:12", "promote", 4) for n in range(6)
    ]
    assert delays == DAEMON_DELAYS


@pytest.mark.parametrize("base", [0.0, -1.0])
def test_non_positive_base_disables(base):
    assert backoff_delay(base, 5, 0, "anything") == 0.0


def test_delays_stay_between_base_and_cap():
    for attempt in range(1, 40):
        delay = backoff_delay(0.01, attempt, 11, "cell", attempt % 3)
        assert 0.01 <= delay <= 0.32


def test_seeded_unit_is_a_pure_uniform_draw():
    draws = [seeded_unit(5, "token", i) for i in range(200)]
    assert draws == [seeded_unit(5, "token", i) for i in range(200)]
    assert all(0.0 <= u < 1.0 for u in draws)
    assert len(set(draws)) == len(draws)
