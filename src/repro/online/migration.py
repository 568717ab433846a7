"""Migration decisions: diffing placements and damping flapping.

The batch framework binds objects to a tier once, at allocation time.
The online daemon instead re-solves placement every window, so two
consecutive decisions can disagree — the difference is a set of
*migrations*: promotions copy an object's pages into the fast tier,
demotions evict them back. Each moved byte is charged to the run
through :class:`repro.machine.performance.PlacedTraffic` at the
page-migration bandwidth.

Because per-window profiles are sampled (and therefore noisy), a
naive diff would thrash objects whose ranking hovers near the budget
boundary. :class:`HysteresisFilter` requires a site to win (or lose)
its place for ``confirm_windows`` consecutive decisions before the
move is actually issued — the standard debounce both online-guidance
papers in PAPERS.md apply.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError

PROMOTE = "promote"
DEMOTE = "demote"


@dataclass(frozen=True, slots=True)
class MigrationAction:
    """One tier-to-tier move of one site's data."""

    site: str
    direction: str
    #: Real (unscaled) bytes moved, per rank.
    bytes_real: int
    #: Index of the decision window that issued the move.
    window: int

    def __post_init__(self) -> None:
        if self.direction not in (PROMOTE, DEMOTE):
            raise ConfigError(f"unknown direction {self.direction!r}")
        if self.bytes_real < 0:
            raise ConfigError("negative migration size")


@dataclass(frozen=True, slots=True)
class MigrationFailure:
    """One migration that finally failed (after any retries) and was
    rolled back: the site stays in its prior tier and none of its
    bytes are charged, so the applied placement and the accounted
    ``migrated_bytes`` can never disagree."""

    site: str
    direction: str
    #: Index of the decision window that issued the failing move.
    window: int
    #: Attempts consumed (1 = failed outright, no retry granted).
    attempts: int
    #: Failure-taxonomy bucket of the final error
    #: (:func:`repro.errors.classify_error`).
    category: str

    def __post_init__(self) -> None:
        if self.direction not in (PROMOTE, DEMOTE):
            raise ConfigError(f"unknown direction {self.direction!r}")
        if self.attempts < 1:
            raise ConfigError("a failure consumes at least one attempt")


def diff_placements(
    current: frozenset[str], target: frozenset[str]
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Sites to promote and demote to turn ``current`` into ``target``
    (each sorted for deterministic journals)."""
    return (
        tuple(sorted(target - current)),
        tuple(sorted(current - target)),
    )


class HysteresisFilter:
    """Debounce placement flapping with a per-site streak counter.

    A site is *applied* (actually migrated fast) only after appearing
    in the advised set for ``confirm_windows`` consecutive decisions,
    and evicted only after being absent for as many. ``1`` means "act
    immediately".
    """

    def __init__(self, confirm_windows: int = 1) -> None:
        if confirm_windows < 1:
            raise ConfigError(
                f"confirm_windows must be >= 1, got {confirm_windows}"
            )
        self.confirm_windows = confirm_windows
        self._applied: frozenset[str] = frozenset()
        self._streaks: dict[str, int] = {}

    @property
    def applied(self) -> frozenset[str]:
        return self._applied

    def update(self, advised: frozenset[str]) -> frozenset[str]:
        """Fold one window's advised set in; return the applied set."""
        streaks: dict[str, int] = {}
        for site in advised | self._applied:
            wants_flip = (site in advised) != (site in self._applied)
            if wants_flip:
                streaks[site] = self._streaks.get(site, 0) + 1
            # A site matching its applied state resets its streak.
        flipped = {
            site
            for site, streak in streaks.items()
            if streak >= self.confirm_windows
        }
        for site in flipped:
            streaks.pop(site)
        self._streaks = streaks
        self._applied = frozenset(self._applied ^ flipped)
        return self._applied

    def decay(self) -> None:
        """Age every streak by one window without folding new advice.

        The daemon calls this on a *degraded* window (dropped, corrupt
        or late sample batch, or a blown decision deadline): the
        window produced no usable evidence, so confirmation streaks
        built before the gap must not survive it at full strength —
        a site flapping across an outage would otherwise migrate on
        stale evidence the moment the stream recovers.
        """
        self._streaks = {
            site: streak - 1
            for site, streak in self._streaks.items()
            if streak > 1
        }

    def rollback(self, site: str) -> None:
        """Undo one site's most recent flip after its migration failed.

        The filter flipped ``site`` into (or out of) its applied set,
        but the migration itself was rolled back — resync the filter
        to physical reality and clear the site's streak so it must
        re-earn the move from scratch.
        """
        self._applied = frozenset(self._applied ^ {site})
        self._streaks.pop(site, None)
