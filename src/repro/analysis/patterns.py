"""Access-pattern classification from sampled addresses (Section V).

"[Folding] also leads us to identify regions of code with regular and
irregular access patterns. This analysis would help placing
irregularly accessed variables into the memory with shorter latency."

The classifier works on exactly what the trace has: the sampled
addresses attributed to each object, in time order. A *regular*
object's samples march through the address range (a streamed array:
sorted samples are roughly evenly spaced AND arrive in address order);
an *irregular* object's samples jump around (gathers, pointer chasing).
Two simple, robust statistics decide:

* **direction coherence** — the fraction of consecutive sample pairs
  moving in the majority direction; streams score near 1, random
  accesses near 0.5;
* **stride dispersion** — a robust (median/MAD-based) spread of the
  consecutive absolute deltas; constant-stride walks score near 0.
  Robust statistics matter here: an iterative stream wraps back to
  the start of its array once per iteration, and those few huge
  deltas must not drown the otherwise-constant stride.

The result feeds the placement hint of the paper's sketch: regular
objects want *bandwidth* (they prefetch well), irregular objects want
*latency* — on KNL both point at MCDRAM, but on latency-tiered
machines (or for the latency-weighted strategies) the distinction
matters.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from repro.analysis.objects import ObjectKey
from repro.analysis.vectorattr import sample_owners
from repro.trace.columnar import ColumnarTrace
from repro.trace.tracefile import TraceFile


class PatternClass(Enum):
    REGULAR = "regular"
    IRREGULAR = "irregular"
    #: Too few samples to call (the honest bucket).
    UNKNOWN = "unknown"


@dataclass(frozen=True, slots=True)
class PatternVerdict:
    """Classification of one object's sampled access pattern."""

    key: ObjectKey
    pattern: PatternClass
    samples: int
    #: Fraction of consecutive sample pairs moving in the majority
    #: direction (1.0 = perfect stream, ~0.5 = random).
    direction_coherence: float
    #: Coefficient of variation of consecutive absolute strides.
    stride_dispersion: float

    @property
    def placement_hint(self) -> str:
        """The Section V advice this classification implies."""
        if self.pattern is PatternClass.IRREGULAR:
            return "prefer low-latency tier"
        if self.pattern is PatternClass.REGULAR:
            return "prefer high-bandwidth tier"
        return "insufficient samples"


#: Minimum attributed samples before a verdict is attempted.
MIN_SAMPLES = 12
#: Coherence above this (with low dispersion) reads as a stream.
COHERENCE_THRESHOLD = 0.75
#: MAD/median of the strides below this reads as constant-stride.
DISPERSION_THRESHOLD = 0.35


def _classify_addresses(
    addresses: np.ndarray,
) -> tuple[PatternClass, float, float]:
    n = addresses.size
    if n < MIN_SAMPLES:
        return PatternClass.UNKNOWN, 0.0, 0.0
    deltas = np.diff(addresses)
    moving = deltas[deltas != 0]
    if not moving.size:
        return PatternClass.REGULAR, 1.0, 0.0
    forward = int(np.count_nonzero(moving > 0))
    coherence = max(forward, moving.size - forward) / moving.size
    magnitudes = np.abs(moving).astype(np.float64)
    median = float(np.median(magnitudes))
    if median == 0:
        dispersion = 0.0
    else:
        dispersion = float(np.median(np.abs(magnitudes - median))) / median
    if coherence >= COHERENCE_THRESHOLD and dispersion <= DISPERSION_THRESHOLD:
        return PatternClass.REGULAR, coherence, dispersion
    return PatternClass.IRREGULAR, coherence, dispersion


def classify_access_patterns(
    trace: TraceFile | ColumnarTrace,
) -> dict[ObjectKey, PatternVerdict]:
    """Classify every sampled object in ``trace``.

    Samples are attributed time-aware (the replay the profile's
    attribution uses), then each object's address sequence is scored.
    Verdicts are keyed in the order objects are first sampled.
    """
    addresses, owners, keys = sample_owners(trace)
    hits = np.flatnonzero(owners >= 0)
    # Group samples by object, each group still in time order.
    by_object = hits[np.argsort(owners[hits], kind="stable")]
    key_ids, starts = np.unique(owners[by_object], return_index=True)
    ends = np.append(starts[1:], by_object.size)

    verdicts: dict[ObjectKey, PatternVerdict] = {}
    for g in np.argsort(by_object[starts]):
        sampled = addresses[by_object[starts[g] : ends[g]]]
        pattern, coherence, dispersion = _classify_addresses(sampled)
        key = keys[key_ids[g]]
        verdicts[key] = PatternVerdict(
            key=key,
            pattern=pattern,
            samples=int(sampled.size),
            direction_coherence=coherence,
            stride_dispersion=dispersion,
        )
    return verdicts
