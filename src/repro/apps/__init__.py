"""Simulated application suite.

Synthetic equivalents of the paper's eight evaluation applications
(Table I) plus the STREAM Triad kernel of Figure 1. Each application
is an allocation/access *model*: an inventory of allocation sites
(call-stacks, sizes, lifetimes), per-object access patterns and miss
weights, a phase timeline, and the Table I / Figure 4 calibration
constants. The framework only ever observes allocation events and
sampled addresses, so a faithful inventory reproduces exactly the
interface the real binaries present to it.
"""

from repro.apps.base import (
    AccessPattern,
    AppCalibration,
    AppGeometry,
    GroundTruth,
    ObjectSpec,
    PhaseSpec,
    ProfilingRun,
    ReplayResult,
    SimApplication,
)
from repro.apps.registry import ALL_APP_NAMES, APP_NAMES, get_app, iter_apps

__all__ = [
    "AccessPattern",
    "AppCalibration",
    "AppGeometry",
    "GroundTruth",
    "ObjectSpec",
    "PhaseSpec",
    "ProfilingRun",
    "ReplayResult",
    "SimApplication",
    "APP_NAMES",
    "ALL_APP_NAMES",
    "get_app",
    "iter_apps",
]
