"""Paramedir substitute: trace -> per-object CSV statistics.

"Paramedir is applied to compute two statistics from the trace for
each application data object: (1) the cost of the memory accesses
[approximated by the number of LLC misses], and (2) the size of the
object" (Section III, Step 2). The CSV round-trip mirrors Paramedir's
comma-separated-value output so the advisor stage can be driven from a
file, exactly like the real toolchain.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from repro.analysis.config import AnalysisConfig
from repro.analysis.objects import ObjectKey, ObjectKind
from repro.analysis.profile import ObjectProfile, ProfileSet
from repro.analysis.vectorattr import attribute_samples_vector
from repro.errors import AttributionError
from repro.trace.columnar import KIND_SAMPLE, ColumnarTrace
from repro.trace.tracefile import TraceFile


class Paramedir:
    """Non-graphical analysis driver.

    Optionally driven by an :class:`~repro.analysis.config.AnalysisConfig`
    ("the so-called configuration files that can be applied to any
    trace-file", Section III, Step 2): the config narrows which
    samples are counted (time window, ranks) and which objects are
    reported (size floor, statics, top-N). Allocation history is
    never filtered — live ranges must be complete for attribution.
    """

    def __init__(self, config: "AnalysisConfig | None" = None) -> None:
        self.config = config

    def analyze(self, trace: "TraceFile | ColumnarTrace") -> ProfileSet:
        """Compute the per-object statistics for one trace."""
        if self.config is not None:
            trace = self._narrow(trace)
        profiles = ProfileSet.from_attribution(
            attribute_samples_vector(trace),
            sampling_period=trace.sampling_period,
            application=trace.application,
        )
        if self.config is not None:
            profiles = self._filter_profiles(profiles)
        return profiles

    def _narrow(self, trace: "TraceFile | ColumnarTrace") -> ColumnarTrace:
        """Copy of ``trace`` with out-of-scope samples removed."""
        if isinstance(trace, TraceFile):
            trace = ColumnarTrace.from_tracefile(trace)
        config = self.config
        admitted = np.ones(trace.n_events, dtype=bool)
        if config.time_window is not None:
            t0, t1 = config.time_window
            admitted &= (trace.times >= t0) & (trace.times < t1)
        if config.ranks is not None:
            admitted &= np.isin(
                trace.event_ranks, np.asarray(config.ranks, dtype=np.int32)
            )
        return trace.select((trace.kinds != KIND_SAMPLE) | admitted)

    def _filter_profiles(self, profiles: ProfileSet) -> ProfileSet:
        config = self.config
        kept = [
            p
            for p in profiles.profiles
            if p.size >= config.min_object_size
            and (config.include_statics or p.key.kind != ObjectKind.STATIC)
        ]
        if config.top_n is not None:
            kept = sorted(
                kept, key=lambda p: (p.sampled_misses, p.size), reverse=True
            )[: config.top_n]
        return ProfileSet(
            profiles=kept,
            stack_samples=profiles.stack_samples,
            unresolved_samples=profiles.unresolved_samples,
            sampling_period=profiles.sampling_period,
            application=profiles.application,
        )


_CSV_FIELDS = [
    "kind",
    "identity",
    "sampled_misses",
    "size",
    "n_allocs",
    "total_allocated",
    "sampling_period",
    "sampled_latency",
]

#: The pre-latency-extension header: reports written before the
#: ``sampled_latency`` column existed are still readable (the column
#: defaults to 0).
_LEGACY_CSV_FIELDS = _CSV_FIELDS[:-1]


def _identity_to_str(key: ObjectKey) -> str:
    if key.kind == ObjectKind.DYNAMIC:
        return ";".join(f"{fn}|{fi}|{ln}" for fn, fi, ln in key.identity)
    return str(key.identity)


def _identity_from_str(kind: ObjectKind, text: str) -> ObjectKey:
    if kind == ObjectKind.DYNAMIC:
        frames = []
        for part in text.split(";"):
            fn, fi, ln = part.split("|")
            frames.append((fn, fi, int(ln)))
        return ObjectKey(kind=kind, identity=tuple(frames))
    return ObjectKey(kind=kind, identity=text)


def write_profiles_csv(profiles: ProfileSet, path: str | Path) -> None:
    """Emit the Paramedir-style CSV report."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_CSV_FIELDS)
        writer.writeheader()
        for p in profiles:
            writer.writerow(
                {
                    "kind": p.key.kind.value,
                    "identity": _identity_to_str(p.key),
                    "sampled_misses": p.sampled_misses,
                    "size": p.size,
                    "n_allocs": p.n_allocs,
                    "total_allocated": p.total_allocated,
                    "sampling_period": p.sampling_period,
                    "sampled_latency": p.sampled_latency,
                }
            )


def read_profiles_csv(path: str | Path) -> ProfileSet:
    """Parse a CSV report back into a :class:`ProfileSet`.

    Accepts the current header and the legacy (pre-``sampled_latency``)
    one; rejects anything else. All rows must agree on the sampling
    period — a mixed-period file would silently mis-scale every
    estimated miss count, so it is an error, not a last-row-wins.
    """
    path = Path(path)
    profiles: list[ObjectProfile] = []
    periods: set[int] = set()
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames not in (_CSV_FIELDS, _LEGACY_CSV_FIELDS):
            raise AttributionError(
                f"{path}: unexpected CSV header {reader.fieldnames}"
            )
        for row in reader:
            try:
                kind = ObjectKind(row["kind"])
                key = _identity_from_str(kind, row["identity"])
                period = int(row["sampling_period"])
                periods.add(period)
                profiles.append(
                    ObjectProfile(
                        key=key,
                        sampled_misses=int(row["sampled_misses"]),
                        size=int(row["size"]),
                        n_allocs=int(row["n_allocs"]),
                        total_allocated=int(row["total_allocated"]),
                        sampling_period=period,
                        sampled_latency=int(row.get("sampled_latency", 0) or 0),
                    )
                )
            except (KeyError, ValueError) as exc:
                raise AttributionError(f"{path}: malformed row {row}") from exc
    if len(periods) > 1:
        raise AttributionError(
            f"{path}: rows disagree on sampling_period "
            f"({sorted(periods)}); one report must come from one "
            "sampling configuration"
        )
    return ProfileSet(
        profiles=profiles,
        sampling_period=periods.pop() if periods else 1,
    )
