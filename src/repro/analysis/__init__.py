"""Trace analysis (Paramedir substitute).

Turns a trace into per-object statistics: sample-to-object
attribution (time-aware, address-reuse-safe), object profiles (LLC
misses, sizes, density), CSV emission, and the Folding-style
time-binned view used for Figure 5.
"""

from repro.analysis.config import AnalysisConfig
from repro.analysis.objects import ObjectKey
from repro.analysis.attribution import AttributionResult
from repro.analysis.vectorattr import attribute_samples_vector
from repro.analysis.profile import ObjectProfile, ProfileSet
from repro.analysis.paramedir import Paramedir, write_profiles_csv, read_profiles_csv
from repro.analysis.folding import FoldedBin, FoldedTimeline, fold_trace
from repro.analysis.patterns import (
    PatternClass,
    PatternVerdict,
    classify_access_patterns,
)

__all__ = [
    "AnalysisConfig",
    "ObjectKey",
    "AttributionResult",
    "attribute_samples_vector",
    "ObjectProfile",
    "ProfileSet",
    "Paramedir",
    "write_profiles_csv",
    "read_profiles_csv",
    "FoldedBin",
    "FoldedTimeline",
    "fold_trace",
    "PatternClass",
    "PatternVerdict",
    "classify_access_patterns",
]
