"""Sample-to-object attribution results.

Extrae "registers the address of the particular load or store
instruction that missed in LLC, and it correlates with its
corresponding object by matching the accessed address against the
previously allocated object's address ranges" (Section III, Step 1).
:mod:`repro.analysis.vectorattr` does that matching; this module holds
what it produces and the stack-region rule it applies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.objects import ObjectKey
from repro.trace.events import AllocEvent, FreeEvent, SampleEvent


@dataclass
class AttributionResult:
    """Per-object tallies of the sampled LLC misses."""

    #: Sampled misses per object.
    misses: dict[ObjectKey, int] = field(default_factory=dict)
    #: Largest single allocation observed per dynamic object (the
    #: paper reports "the maximum requested size observed for each
    #: repeated allocation site"); statics carry their declared size.
    max_size: dict[ObjectKey, int] = field(default_factory=dict)
    #: Sum of all allocations per object over the run.
    total_allocated: dict[ObjectKey, int] = field(default_factory=dict)
    #: Number of allocations per object.
    n_allocs: dict[ObjectKey, int] = field(default_factory=dict)
    #: Summed sampled access latency (cycles) per object — only
    #: non-empty when the trace carries Xeon-style latency samples.
    latency_sum: dict[ObjectKey, int] = field(default_factory=dict)
    #: Samples that matched no known range (untracked small
    #: allocations, etc.).
    unresolved_samples: int = 0
    #: Samples landing in the stack region.
    stack_samples: int = 0
    total_samples: int = 0

    def miss_share(self, key: ObjectKey) -> float:
        if self.total_samples == 0:
            return 0.0
        return self.misses.get(key, 0) / self.total_samples


# Tie-break priorities for events with equal timestamps: allocations
# become visible before samples at the same instant; frees apply after.
_PRIORITY = {AllocEvent: 0, SampleEvent: 1, FreeEvent: 2}


def stack_region_of(metadata: dict) -> tuple[int | None, int | None]:
    """The ``(base, size)`` stack region recorded in trace metadata.

    The tracer stores it as a two-element sequence; a JSON round-trip
    turns tuples into lists, and a damaged/absent entry must read as
    "no stack region" rather than crash the whole analysis — the vector
    kernel and its per-event oracle share this normalisation.
    """
    region = metadata.get("stack_region")
    if not isinstance(region, (list, tuple)) or len(region) != 2:
        return (None, None)
    base, size = region
    if not isinstance(base, int) or not isinstance(size, int):
        return (None, None)
    return (base, size)
