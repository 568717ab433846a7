"""Per-event reference implementations (test oracles).

Each function here is the plain, one-event-at-a-time version of a
vectorised production path, kept only so property tests and the
legacy ``repro-bench`` harness can prove the fast path equal to it.
No production module imports this package.
"""

from repro._oracles.attribution import attribute_samples
from repro._oracles.cache import access_stream_reference, feed_reference
from repro._oracles.scalar import (
    make_scoring_workload,
    predict_share_reference,
    sample_reference,
    windowed_cost_reference,
)

__all__ = [
    "access_stream_reference",
    "attribute_samples",
    "feed_reference",
    "make_scoring_workload",
    "predict_share_reference",
    "sample_reference",
    "windowed_cost_reference",
]
