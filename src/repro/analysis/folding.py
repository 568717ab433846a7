"""Folding substitute: time-binned performance evolution (Figure 5).

The BSC Folding technique combines coarse-grained samples from many
iterations into a detailed time-line of code region, referenced
addresses and performance counters. The simulated equivalent bins a
trace's phase markers and memory samples over time and annotates each
bin with an instruction rate supplied by the caller (MIPS per
function under the placement being studied), producing the three
stacked plots of the paper's Figure 5: source code executed, address
space referenced, and MIPS achieved.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

import numpy as np

from repro.errors import TraceError
from repro.trace.columnar import KIND_PHASE, KIND_SAMPLE, ColumnarTrace
from repro.trace.tracefile import TraceFile


@dataclass(frozen=True, slots=True)
class FoldedBin:
    """One time bin of the folded timeline."""

    t0: float
    t1: float
    function: str
    addresses: tuple[int, ...]
    mips: float = 0.0

    @property
    def midpoint(self) -> float:
        return (self.t0 + self.t1) / 2.0


@dataclass
class FoldedTimeline:
    """The folded view of one run (Figure 5's three stacked plots)."""

    bins: list[FoldedBin] = field(default_factory=list)

    @property
    def functions(self) -> list[str]:
        seen: list[str] = []
        for b in self.bins:
            if b.function not in seen:
                seen.append(b.function)
        return seen

    def mips_series(self) -> list[tuple[float, float]]:
        return [(b.midpoint, b.mips) for b in self.bins]

    def function_series(self) -> list[tuple[float, str]]:
        return [(b.midpoint, b.function) for b in self.bins]

    def min_mips_by_function(self) -> dict[str, float]:
        """Lowest observed MIPS per function (dip detection)."""
        out: dict[str, float] = {}
        for b in self.bins:
            out[b.function] = min(out.get(b.function, float("inf")), b.mips)
        return out


def fold_trace(
    trace: ColumnarTrace | TraceFile,
    n_bins: int = 100,
    t_start: float | None = None,
    t_end: float | None = None,
    mips_by_function: dict[str, float] | None = None,
) -> FoldedTimeline:
    """Bin phase markers and samples over ``[t_start, t_end]``.

    Parameters
    ----------
    trace:
        Trace with phase and sample rows; a row-oriented
        :class:`~repro.trace.tracefile.TraceFile` is columnarised first.
    n_bins:
        Number of equal-width time bins.
    mips_by_function:
        Instruction rate to annotate bins with, keyed by function name
        (from the execution model of the placement under study).
    """
    if isinstance(trace, TraceFile):
        trace = ColumnarTrace.from_tracefile(trace)

    def rows_by_time(kind: int) -> np.ndarray:
        rows = np.flatnonzero(trace.kinds == kind)
        return rows[np.argsort(trace.times[rows], kind="stable")]

    phases = rows_by_time(KIND_PHASE)
    if not phases.size:
        raise TraceError("folding needs at least one phase event")
    samples = rows_by_time(KIND_SAMPLE)
    phase_times = trace.times[phases].tolist()
    phase_functions = [trace.functions[i] for i in trace.aux[phases].tolist()]
    sample_times = trace.times[samples].tolist()
    sample_addresses = trace.addresses[samples].tolist()

    lo = t_start if t_start is not None else phase_times[0]
    hi = t_end if t_end is not None else trace.duration
    if hi <= lo:
        raise TraceError(f"empty folding window [{lo}, {hi}]")
    width = (hi - lo) / n_bins
    mips_by_function = mips_by_function or {}

    bins: list[FoldedBin] = []
    for i in range(n_bins):
        t0 = lo + i * width
        t1 = t0 + width
        # Active function: the phase entered most recently before t0.
        pidx = bisect.bisect_right(phase_times, t0 + width / 2) - 1
        function = phase_functions[max(pidx, 0)]
        s_lo = bisect.bisect_left(sample_times, t0)
        s_hi = bisect.bisect_left(sample_times, t1)
        bins.append(
            FoldedBin(
                t0=t0,
                t1=t1,
                function=function,
                addresses=tuple(sample_addresses[s_lo:s_hi]),
                mips=mips_by_function.get(function, 0.0),
            )
        )
    return FoldedTimeline(bins=bins)
