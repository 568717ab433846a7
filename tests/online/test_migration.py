"""Migration diffing and hysteresis debouncing."""

import pytest

from repro.errors import ConfigError
from repro.online.migration import (
    DEMOTE,
    PROMOTE,
    HysteresisFilter,
    MigrationAction,
    diff_placements,
)


class TestDiffPlacements:
    def test_promotes_and_demotes_sorted(self):
        promote, demote = diff_placements(
            frozenset({"a", "b"}), frozenset({"b", "d", "c"})
        )
        assert promote == ("c", "d")
        assert demote == ("a",)

    def test_identical_sets_hold(self):
        assert diff_placements(frozenset({"a"}), frozenset({"a"})) == ((), ())

    def test_cold_start_promotes_everything(self):
        promote, demote = diff_placements(frozenset(), frozenset({"x"}))
        assert promote == ("x",)
        assert demote == ()


class TestMigrationAction:
    def test_rejects_unknown_direction(self):
        with pytest.raises(ConfigError):
            MigrationAction(site="a", direction="sideways", bytes_real=1,
                            window=0)

    def test_rejects_negative_size(self):
        with pytest.raises(ConfigError):
            MigrationAction(site="a", direction=PROMOTE, bytes_real=-1,
                            window=0)

    def test_directions(self):
        assert {PROMOTE, DEMOTE} == {"promote", "demote"}


class TestHysteresisFilter:
    def test_confirm_one_acts_immediately(self):
        h = HysteresisFilter(confirm_windows=1)
        assert h.update(frozenset({"a"})) == frozenset({"a"})
        assert h.update(frozenset()) == frozenset()

    def test_confirm_two_needs_two_wins(self):
        h = HysteresisFilter(confirm_windows=2)
        assert h.update(frozenset({"a"})) == frozenset()
        assert h.update(frozenset({"a"})) == frozenset({"a"})

    def test_streak_resets_on_disagreement(self):
        h = HysteresisFilter(confirm_windows=2)
        h.update(frozenset({"a"}))          # streak 1
        h.update(frozenset())               # reset
        assert h.update(frozenset({"a"})) == frozenset()  # streak 1 again
        assert h.update(frozenset({"a"})) == frozenset({"a"})

    def test_eviction_debounced_symmetrically(self):
        h = HysteresisFilter(confirm_windows=2)
        h.update(frozenset({"a"}))
        h.update(frozenset({"a"}))
        assert h.applied == frozenset({"a"})
        assert h.update(frozenset()) == frozenset({"a"})  # one miss: hold
        assert h.update(frozenset()) == frozenset()       # two: evict

    def test_flapping_advice_never_applies(self):
        h = HysteresisFilter(confirm_windows=2)
        for _ in range(6):
            assert h.update(frozenset({"a"})) == frozenset()
            assert h.update(frozenset()) == frozenset()

    def test_rejects_zero_confirm(self):
        with pytest.raises(ConfigError):
            HysteresisFilter(confirm_windows=0)

    def test_site_vanishing_mid_streak_resets_streak(self):
        """A site that disappears from the window profile entirely
        (freed, or gone cold below the advisor's floor) mid-streak
        must re-earn its placement from scratch when it returns."""
        h = HysteresisFilter(confirm_windows=3)
        h.update(frozenset({"a"}))          # streak 2 of 3
        h.update(frozenset({"a"}))
        h.update(frozenset({"b"}))          # "a" vanished: streak gone
        assert h.update(frozenset({"a"})) == frozenset()  # streak 1
        assert h.update(frozenset({"a"})) == frozenset()  # streak 2
        assert h.update(frozenset({"a"})) == frozenset({"a"})

    def test_applied_site_vanishing_counts_toward_eviction(self):
        """An *applied* site absent from the profile starts an eviction
        streak — absence is evidence for demotion, not a no-op."""
        h = HysteresisFilter(confirm_windows=2)
        h.update(frozenset({"a"}))
        h.update(frozenset({"a"}))
        assert h.applied == frozenset({"a"})
        h.update(frozenset({"b"}))          # a absent: eviction streak 1
        assert h.update(frozenset({"b"})) == frozenset({"b"})


class TestHysteresisDecay:
    def test_decay_ages_streaks_by_one(self):
        h = HysteresisFilter(confirm_windows=3)
        h.update(frozenset({"a"}))
        h.update(frozenset({"a"}))          # streak 2
        h.decay()                           # back to 1
        h.update(frozenset({"a"}))          # 2 again
        assert h.applied == frozenset()
        assert h.update(frozenset({"a"})) == frozenset({"a"})

    def test_decay_drops_single_step_streaks(self):
        h = HysteresisFilter(confirm_windows=2)
        h.update(frozenset({"a"}))          # streak 1
        h.decay()                           # dropped
        assert h.update(frozenset({"a"})) == frozenset()  # back to 1

    def test_decay_never_flips_placement(self):
        h = HysteresisFilter(confirm_windows=1)
        h.update(frozenset({"a"}))
        for _ in range(5):
            h.decay()
        assert h.applied == frozenset({"a"})


class TestHysteresisRollback:
    def test_rollback_undoes_a_promotion(self):
        h = HysteresisFilter(confirm_windows=1)
        h.update(frozenset({"a"}))
        assert h.applied == frozenset({"a"})
        h.rollback("a")
        assert h.applied == frozenset()

    def test_rollback_undoes_an_eviction(self):
        h = HysteresisFilter(confirm_windows=1)
        h.update(frozenset({"a"}))
        h.update(frozenset())
        assert h.applied == frozenset()
        h.rollback("a")
        assert h.applied == frozenset({"a"})

    def test_rolled_back_site_must_re_earn_the_move(self):
        h = HysteresisFilter(confirm_windows=2)
        h.update(frozenset({"a"}))
        h.update(frozenset({"a"}))
        h.rollback("a")
        assert h.update(frozenset({"a"})) == frozenset()  # streak 1 again
        assert h.update(frozenset({"a"})) == frozenset({"a"})


class TestHysteresisState:
    def test_round_trip(self):
        """The filter's state is a pure function of the calls made on
        it: replaying them into a fresh filter reproduces it, and both
        keep evolving identically (what resume-by-replay relies on)."""
        calls = [
            ("update", frozenset({"a", "b"})),
            ("decay", None),
            ("update", frozenset({"a"})),
            ("update", frozenset({"a", "c"})),
            ("rollback", "a"),
        ]

        def replay() -> HysteresisFilter:
            h = HysteresisFilter(confirm_windows=2)
            for method, arg in calls:
                getattr(h, method)(*(() if arg is None else (arg,)))
            return h

        h, again = replay(), replay()
        assert again.applied == h.applied
        assert again._streaks == h._streaks
        advice = frozenset({"b", "c"})
        assert again.update(advice) == h.update(advice)


class TestMigrationFailure:
    def test_rejects_unknown_direction(self):
        from repro.online.migration import MigrationFailure

        with pytest.raises(ConfigError):
            MigrationFailure(site="a", direction="sideways", window=0,
                             attempts=1, category="transient")

    def test_rejects_zero_attempts(self):
        from repro.online.migration import MigrationFailure

        with pytest.raises(ConfigError):
            MigrationFailure(site="a", direction=PROMOTE, window=0,
                             attempts=0, category="transient")
