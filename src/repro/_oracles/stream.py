"""Per-site window miss-stream generator the plan-based one replaced.

:meth:`SimApplication.generate_window_stream` builds each (iteration,
phase) window from a cached plan: one gather over a permutation
computed once per window shape. This is the generator it replaced,
kept verbatim: every window rebuilds one address and one latency
array per touched site and merges them with ``np.array_split``
round-robin interleaving.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import STACK_LATENCY_CYCLES, PhaseSpec, SimApplication


def interleave_reference(
    arrays: list[np.ndarray], chunks: int = 8
) -> np.ndarray:
    """Deterministic round-robin merge preserving intra-array order."""
    arrays = [a for a in arrays if a.size]
    if not arrays:
        return np.zeros(0, dtype=np.uint64)
    pieces: list[np.ndarray] = []
    splits = [np.array_split(a, chunks) for a in arrays]
    for c in range(chunks):
        for s in splits:
            pieces.append(s[c])
    return np.concatenate(pieces)


def _interleave_like(
    companions: list[np.ndarray], arrays: list[np.ndarray], chunks: int = 8
) -> np.ndarray:
    """Interleave ``companions`` with the exact permutation
    :func:`interleave_reference` applies to ``arrays`` (pairwise
    aligned)."""
    paired = [c for c, a in zip(companions, arrays) if a.size]
    if not paired:
        return np.zeros(0, dtype=np.int64)
    pieces: list[np.ndarray] = []
    splits = [np.array_split(c, chunks) for c in paired]
    for chunk in range(chunks):
        for split in splits:
            pieces.append(split[chunk])
    return np.concatenate(pieces)


def window_stream_reference(
    app: SimApplication,
    phase: PhaseSpec,
    t0: float,
    t1: float,
    live: dict[str, int],
    statics: dict[str, int],
    stack_base: int,
    touch_sets: dict[str, np.ndarray],
    stack_touch: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, dict[str, int], np.ndarray]:
    """Addresses/times/latencies of one (iteration, phase) window's
    misses, built site by site. ``live`` is the set the window sees,
    after :meth:`SimApplication.window_live`."""
    per_iter = app._misses_per_iteration()
    counts: dict[str, int] = {}
    arrays: list[np.ndarray] = []
    latency_arrays: list[np.ndarray] = []

    for spec in app.objects:
        if not spec.touches(phase.function):
            continue
        base = (
            statics.get(spec.name)
            if spec.static
            else live.get(spec.name)
        )
        if base is None:
            continue
        n = per_iter[spec.name] // max(app._touching_phase_count(spec), 1)
        if n == 0:
            continue
        offsets = touch_sets[spec.name][:n]
        arrays.append((base + offsets).astype(np.uint64))
        latency_arrays.append(
            np.full(offsets.size, spec.pattern.latency_cycles,
                    dtype=np.int64)
        )
        counts[spec.name] = counts.get(spec.name, 0) + int(offsets.size)

    n_stack = int(
        round(
            app._stack_misses_per_iteration()
            * app._stack_share_of_phase(phase)
        )
    )
    if n_stack > 0:
        offs = stack_touch[:n_stack]
        arrays.append((stack_base + offs).astype(np.uint64))
        latency_arrays.append(
            np.full(offs.size, STACK_LATENCY_CYCLES, dtype=np.int64)
        )
        counts["<stack>"] = counts.get("<stack>", 0) + int(offs.size)

    merged = interleave_reference(arrays)
    latencies = _interleave_like(latency_arrays, arrays)
    if merged.size:
        times = t0 + (np.arange(merged.size) + 0.5) * (t1 - t0) / (
            merged.size + 1
        )
    else:
        times = np.zeros(0, dtype=float)
    return merged, times, counts, latencies
