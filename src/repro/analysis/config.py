"""Analysis configuration files (the Paraver/Paramedir cfg mechanism).

Section III, Step 2: "These analyses can be stored in the so-called
configuration files that can be applied to any trace-file as long as
it contains the necessary data. Paramedir ... allows to automatize
the analysis through scripts and configuration files."

:class:`AnalysisConfig` is that artifact: a declarative description of
*which part* of a trace to reduce (time window, ranks) and *which
objects* to report (size floor, statics, top-N), serialisable so the
same analysis can be replayed on any compatible trace.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ConfigError


@dataclass(frozen=True, slots=True)
class AnalysisConfig:
    """One stored Paramedir analysis."""

    #: Only events with ``t0 <= time < t1`` are analysed (None: all).
    #: Allocations before the window still define live ranges: the
    #: window restricts *samples*, not the address-space history.
    time_window: tuple[float, float] | None = None
    #: Only samples from these ranks (None: all ranks).
    ranks: tuple[int, ...] | None = None
    #: Drop objects smaller than this from the report.
    min_object_size: int = 0
    #: Keep only the N objects with the most misses (None: all).
    top_n: int | None = None
    #: Include static variables in the report.
    include_statics: bool = True

    def __post_init__(self) -> None:
        if self.time_window is not None:
            t0, t1 = self.time_window
            if t1 <= t0:
                raise ConfigError(
                    f"empty analysis window [{t0}, {t1})"
                )
        if self.min_object_size < 0:
            raise ConfigError("negative size floor")
        if self.top_n is not None and self.top_n < 1:
            raise ConfigError("top_n must be at least 1")

    # -- persistence --------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "time_window": list(self.time_window) if self.time_window else None,
            "ranks": list(self.ranks) if self.ranks is not None else None,
            "min_object_size": self.min_object_size,
            "top_n": self.top_n,
            "include_statics": self.include_statics,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AnalysisConfig":
        try:
            window = data.get("time_window")
            ranks = data.get("ranks")
            return cls(
                time_window=tuple(window) if window else None,
                ranks=tuple(ranks) if ranks is not None else None,
                min_object_size=data.get("min_object_size", 0),
                top_n=data.get("top_n"),
                include_statics=data.get("include_statics", True),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"malformed analysis config: {exc}") from exc

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2))

    @classmethod
    def load(cls, path: str | Path) -> "AnalysisConfig":
        try:
            return cls.from_dict(json.loads(Path(path).read_text()))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed analysis config {path}: {exc}") from exc
