"""Per-object profiles: the advisor's input.

An :class:`ObjectProfile` is one row of Paramedir's CSV: the object,
its sampled LLC misses (and the period-scaled estimate), its size (max
requested per allocation site), and the derived profit density
(misses per byte) the density strategy ranks by.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.analysis.attribution import AttributionResult
from repro.analysis.objects import ObjectKey, ObjectKind
from repro.errors import AttributionError


@dataclass(frozen=True, slots=True)
class ObjectProfile:
    """Aggregated statistics of one memory object."""

    key: ObjectKey
    sampled_misses: int
    size: int
    n_allocs: int = 1
    total_allocated: int = 0
    sampling_period: int = 1
    #: Summed sampled access latency in cycles (0 when the PMU does
    #: not report latency — Xeon Phi).
    sampled_latency: int = 0

    def __post_init__(self) -> None:
        if self.sampled_misses < 0:
            raise AttributionError("negative miss count")
        if self.size < 0:
            raise AttributionError("negative object size")

    @property
    def estimated_misses(self) -> int:
        """Period-scaled estimate of the true LLC miss count."""
        return self.sampled_misses * self.sampling_period

    @property
    def density(self) -> float:
        """Misses per byte — the profit-density ranking criterion."""
        if self.size == 0:
            return 0.0
        return self.sampled_misses / self.size

    @property
    def mean_latency_cycles(self) -> float:
        """Average sampled access cost; 0 without latency samples."""
        if self.sampled_misses == 0:
            return 0.0
        return self.sampled_latency / self.sampled_misses

    @property
    def latency_density(self) -> float:
        """Latency-weighted profit density: cycles avoided per byte."""
        if self.size == 0:
            return 0.0
        return self.sampled_latency / self.size

    @property
    def is_promotable(self) -> bool:
        return self.key.is_promotable


@dataclass
class ProfileSet:
    """All object profiles of one run, with the run-level totals."""

    profiles: list[ObjectProfile] = field(default_factory=list)
    stack_samples: int = 0
    unresolved_samples: int = 0
    sampling_period: int = 1
    application: str = ""

    def __iter__(self) -> Iterator[ObjectProfile]:
        return iter(self.profiles)

    def __len__(self) -> int:
        return len(self.profiles)

    @property
    def total_samples(self) -> int:
        return (
            sum(p.sampled_misses for p in self.profiles)
            + self.stack_samples
            + self.unresolved_samples
        )

    @property
    def dynamic_profiles(self) -> list[ObjectProfile]:
        return [p for p in self.profiles if p.key.kind == ObjectKind.DYNAMIC]

    @property
    def static_profiles(self) -> list[ObjectProfile]:
        return [p for p in self.profiles if p.key.kind == ObjectKind.STATIC]

    def by_misses(self) -> list[ObjectProfile]:
        """Profiles sorted by descending miss count."""
        return sorted(
            self.profiles, key=lambda p: (p.sampled_misses, p.size), reverse=True
        )

    def by_density(self) -> list[ObjectProfile]:
        """Profiles sorted by descending profit density."""
        return sorted(
            self.profiles,
            key=lambda p: (p.density, p.sampled_misses),
            reverse=True,
        )

    def get(self, key: ObjectKey) -> ObjectProfile | None:
        for p in self.profiles:
            if p.key == key:
                return p
        return None

    @classmethod
    def from_attribution(
        cls,
        result: AttributionResult,
        sampling_period: int = 1,
        application: str = "",
    ) -> "ProfileSet":
        """Build profiles from an attribution pass.

        Objects that were allocated but never sampled still appear
        (with zero misses) — the advisor needs their sizes to know they
        exist and should *not* be promoted.
        """
        keys = set(result.max_size) | set(result.misses)
        profiles = []
        for key in keys:
            if key.kind in (ObjectKind.STACK, ObjectKind.UNRESOLVED):
                continue
            profiles.append(
                ObjectProfile(
                    key=key,
                    sampled_misses=result.misses.get(key, 0),
                    size=result.max_size.get(key, 0),
                    n_allocs=result.n_allocs.get(key, 0),
                    total_allocated=result.total_allocated.get(key, 0),
                    sampling_period=sampling_period,
                    sampled_latency=result.latency_sum.get(key, 0),
                )
            )
        # Ties on (misses, size) keep key order, ascending, never the
        # hash-seeded iteration order of ``keys``.
        profiles.sort(key=lambda p: (p.key.kind.value, p.key.identity))
        profiles.sort(key=lambda p: (p.sampled_misses, p.size), reverse=True)
        return cls(
            profiles=profiles,
            stack_samples=result.stack_samples,
            unresolved_samples=result.unresolved_samples,
            sampling_period=sampling_period,
            application=application,
        )
