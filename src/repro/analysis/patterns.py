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

from repro.analysis.attribution import _PRIORITY  # shared event ordering
from repro.analysis.objects import ObjectKey
from repro.runtime.heap import LiveRangeIndex
from repro.trace.columnar import ColumnarTrace
from repro.trace.events import AllocEvent, FreeEvent, SampleEvent
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


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _classify_addresses(addresses: list[int]) -> tuple[PatternClass, float, float]:
    n = len(addresses)
    if n < MIN_SAMPLES:
        return PatternClass.UNKNOWN, 0.0, 0.0
    deltas = [b - a for a, b in zip(addresses, addresses[1:])]
    moving = [d for d in deltas if d != 0]
    if not moving:
        return PatternClass.REGULAR, 1.0, 0.0
    forward = sum(1 for d in moving if d > 0)
    coherence = max(forward, len(moving) - forward) / len(moving)
    magnitudes = [float(abs(d)) for d in moving]
    median = _median(magnitudes)
    if median == 0:
        dispersion = 0.0
    else:
        mad = _median([abs(m - median) for m in magnitudes])
        dispersion = mad / median
    if coherence >= COHERENCE_THRESHOLD and dispersion <= DISPERSION_THRESHOLD:
        return PatternClass.REGULAR, coherence, dispersion
    return PatternClass.IRREGULAR, coherence, dispersion


def classify_access_patterns(
    trace: TraceFile | ColumnarTrace,
) -> dict[ObjectKey, PatternVerdict]:
    """Classify every sampled object in ``trace``.

    Samples are attributed time-aware (the same replay the profiler
    uses), then each object's address sequence is scored.
    """
    if isinstance(trace, ColumnarTrace):
        trace = trace.to_tracefile()
    index: LiveRangeIndex[ObjectKey] = LiveRangeIndex()
    per_object: dict[ObjectKey, list[int]] = {}

    for static in trace.statics:
        key = ObjectKey.static(static.name)
        index.insert(static.address, static.size, key)

    events = sorted(
        trace.events, key=lambda e: (e.time, _PRIORITY.get(type(e), 3))
    )
    for event in events:
        if isinstance(event, AllocEvent):
            index.insert(
                event.address, event.size, ObjectKey.dynamic(event.callstack)
            )
        elif isinstance(event, FreeEvent):
            index.remove(event.address)
        elif isinstance(event, SampleEvent):
            key = index.lookup(event.address)
            if key is not None:
                per_object.setdefault(key, []).append(event.address)

    verdicts: dict[ObjectKey, PatternVerdict] = {}
    for key, addresses in per_object.items():
        pattern, coherence, dispersion = _classify_addresses(addresses)
        verdicts[key] = PatternVerdict(
            key=key,
            pattern=pattern,
            samples=len(addresses),
            direction_coherence=coherence,
            stride_dispersion=dispersion,
        )
    return verdicts
