"""Vectorised sample-to-object attribution (the columnar fast path).

:func:`repro._oracles.attribute_samples` replays the trace one
dataclass event at a time — exact, and kept as the tests' correctness
oracle, but ~10^5-10^6 events/s of pure Python. This
module reproduces its result bit for bit on a
:class:`~repro.trace.columnar.ColumnarTrace` by exploiting the
structure of the workload:

* **Heap mutations delimit epochs.** Only allocation/free events (and
  the statics, up front) change the live-range table. Between two
  mutations the table is frozen, so every sample of that *epoch* can
  be matched in one ``np.searchsorted`` batch against the sorted
  live-range arrays. The paper's traces are sample-heavy — thousands
  of allocation events under hundreds of thousands of PEBS samples —
  so almost all work lands in a few large batches.
* **Equal-timestamp ties follow the oracle exactly.** Events are
  ordered by a stable lexsort on ``(time, kind-priority)`` with the
  oracle's priorities (allocs visible before same-instant samples,
  frees applied after), so address reuse at a shared timestamp
  attributes identically.
* **Tallies are array reductions.** Per-object miss counts are one
  ``bincount`` over the matched key ids, latency sums one
  ``np.add.at`` (integer-exact), per-site alloc statistics
  (max/total/count) grouped reductions over the allocation columns,
  and stack-region/unresolved classification one vectorised range
  test over the unmatched addresses.

The live table itself is the batch-snapshot twin of
:class:`~repro.runtime.heap.LiveRangeIndex`: flat sorted NumPy arrays
mutated by memmove-style shifts, raising the same overlap/missing-free
errors at the same event, so malformed traces fail identically on
both paths.

The replay is packaged as a *resumable* cursor,
:class:`IncrementalAttributor`: construction performs the global sort
once, and the caller then consumes the stream in windows —
``advance_time(t)`` for wall-clock windows (equal timestamps are never
split), ``advance_events(n)`` for arbitrary partitions of the replay
order — snapshotting an :class:`AttributionResult` after any prefix.
The one-shot :func:`attribute_samples_vector` is literally "construct,
consume everything, snapshot", so windowed and batch attribution share
every line of replay code and cannot drift apart. This is what the
online re-advising daemon (:mod:`repro.online`) feeds its per-window
placement decisions from.
"""

from __future__ import annotations

import base64
import zlib

import numpy as np

from repro.analysis.attribution import AttributionResult, stack_region_of
from repro.errors import AttributionError
from repro.analysis.objects import ObjectKey
from repro.trace.columnar import (
    KIND_ALLOC,
    KIND_FREE,
    KIND_SAMPLE,
    ColumnarTrace,
)
from repro.trace.tracefile import TraceFile

#: Kind code -> tie-break priority (the oracle's ``_PRIORITY`` table:
#: alloc 0, sample 1, free 2, phase 3).
_KIND_PRIORITY = np.array([0, 2, 1, 3], dtype=np.uint8)

#: Bump when the :meth:`IncrementalAttributor.to_state` layout changes.
ATTRIBUTOR_STATE_VERSION = 1


def _encode_array(array: np.ndarray) -> dict:
    """JSON-safe encoding of one NumPy array (dtype + base64 bytes)."""
    array = np.ascontiguousarray(array)
    return {
        "dtype": str(array.dtype),
        "data": base64.b64encode(array.tobytes()).decode("ascii"),
    }


def _decode_array(encoded: dict) -> np.ndarray:
    try:
        return np.frombuffer(
            base64.b64decode(encoded["data"]), dtype=encoded["dtype"]
        ).copy()
    except (KeyError, TypeError, ValueError) as exc:
        raise AttributionError(
            f"malformed attributor state array: {exc}"
        ) from exc


class _LiveTable:
    """Sorted live-range arrays with in-place shift mutation.

    ``bases``/``ends``/``key_ids`` occupy the prefix of capacity
    arrays; insert/remove shift the tail (NumPy handles the
    overlapping copy), so an epoch's snapshot is just the prefix
    views — no per-epoch export cost at all. Raises the exact errors
    of :class:`~repro.runtime.heap.LiveRangeIndex` so the fast path
    fails on malformed traces at the same event as the oracle.
    """

    def __init__(self, capacity: int = 256) -> None:
        self._bases = np.empty(capacity, dtype=np.int64)
        self._ends = np.empty(capacity, dtype=np.int64)
        self._keys = np.empty(capacity, dtype=np.int64)
        self.n = 0

    def _grow(self) -> None:
        capacity = max(2 * self._bases.size, 16)
        for name in ("_bases", "_ends", "_keys"):
            arr = getattr(self, name)
            grown = np.empty(capacity, dtype=arr.dtype)
            grown[: self.n] = arr[: self.n]
            setattr(self, name, grown)

    def insert(self, base: int, size: int, key_id: int) -> None:
        if size <= 0:
            raise ValueError(f"range size must be positive, got {size}")
        end = base + size
        pos = int(
            np.searchsorted(self._bases[: self.n], base, side="right")
        )
        if (pos > 0 and self._ends[pos - 1] > base) or (
            pos < self.n and self._bases[pos] < end
        ):
            raise ValueError(
                f"range [{base:#x},{end:#x}) overlaps a live range"
            )
        if self.n == self._bases.size:
            self._grow()
        n = self.n
        self._bases[pos + 1 : n + 1] = self._bases[pos:n]
        self._ends[pos + 1 : n + 1] = self._ends[pos:n]
        self._keys[pos + 1 : n + 1] = self._keys[pos:n]
        self._bases[pos] = base
        self._ends[pos] = end
        self._keys[pos] = key_id
        self.n = n + 1

    def remove(self, base: int) -> None:
        pos = int(np.searchsorted(self._bases[: self.n], base, side="left"))
        if pos == self.n or self._bases[pos] != base:
            raise KeyError(f"no live range starts at {base:#x}")
        n = self.n
        self._bases[pos : n - 1] = self._bases[pos + 1 : n]
        self._ends[pos : n - 1] = self._ends[pos + 1 : n]
        self._keys[pos : n - 1] = self._keys[pos + 1 : n]
        self.n = n - 1

    def match(
        self, addresses: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(hit_mask, key_ids_of_hits)`` for a batch of addresses."""
        n = self.n
        if n == 0:
            return (
                np.zeros(addresses.size, dtype=bool),
                np.empty(0, dtype=np.int64),
            )
        idx = (
            np.searchsorted(self._bases[:n], addresses, side="right") - 1
        )
        hit = idx >= 0
        safe = np.where(hit, idx, 0)
        hit &= addresses < self._ends[:n][safe]
        return hit, self._keys[:n][idx[hit]]


class IncrementalAttributor:
    """Resumable windowed attribution over one trace.

    Construction performs the global ``(time, kind-priority)`` lexsort
    once, registers the statics (load-time by definition) and parks a
    cursor at the start of the replay order. ``advance_time(t)`` /
    ``advance_events(n)`` then consume a prefix of the stream,
    maintaining the live-range table and the accumulated tallies;
    :meth:`result` snapshots an :class:`AttributionResult` over
    everything consumed so far.

    The invariant the online daemon and the windowed-equivalence
    property tests rely on: after any sequence of advances consuming
    the whole stream, :meth:`result` equals the one-shot
    :func:`attribute_samples_vector` (and hence the per-event oracle)
    bit for bit — and every intermediate snapshot equals a batch pass
    over the consumed prefix. Window boundaries placed by time never
    split a run of equal timestamps (``advance_time`` consumes
    *strictly* earlier events), so tie-break semantics are preserved
    no matter where the windows fall; ``advance_events`` may split a
    mutation epoch anywhere, and the cursor resumes mid-epoch.
    """

    def __init__(self, trace: "ColumnarTrace | TraceFile") -> None:
        if isinstance(trace, TraceFile):
            trace = ColumnarTrace.from_tracefile(trace)
        self.trace = trace
        self._stack_base, self._stack_size = stack_region_of(trace.metadata)

        # -- object-key table: interned callstack/static -> dense key id ----
        self._keys: list[ObjectKey] = []
        self._key_id_of: dict[ObjectKey, int] = {}

        def key_id(key: ObjectKey) -> int:
            kid = self._key_id_of.get(key)
            if kid is None:
                kid = self._key_id_of[key] = len(self._keys)
                self._keys.append(key)
            return kid

        # Call-stack interning keys on the full stack (modules
        # included); attribution identity drops the module, so distinct
        # interned stacks may share one ObjectKey — remap through the
        # key table.
        cs_key_ids = np.fromiter(
            (key_id(ObjectKey.dynamic(cs)) for cs in trace.callstacks),
            dtype=np.int64,
            count=len(trace.callstacks),
        )
        static_key_ids = [
            key_id(ObjectKey.static(name)) for name in trace.static_names
        ]

        # -- statics: consumed up front (they exist at load time), with
        # the oracle's exact bookkeeping (last same-name static wins
        # the size fields, every record counts an allocation) ----------------
        self._table = _LiveTable()
        self._static_max: dict[ObjectKey, int] = {}
        self._static_total: dict[ObjectKey, int] = {}
        self._static_nallocs: dict[ObjectKey, int] = {}
        for i, kid in enumerate(static_key_ids):
            key = self._keys[kid]
            size = int(trace.static_sizes[i])
            self._table.insert(int(trace.static_addresses[i]), size, kid)
            self._static_max[key] = size
            self._static_total[key] = size
            self._static_nallocs[key] = (
                self._static_nallocs.get(key, 0) + 1
            )

        # -- per-site allocation statistics accumulate as mutations are
        # consumed (vectorised per advance; order-independent) ---------------
        n_keys = len(self._keys)
        self._alloc_counts = np.zeros(n_keys, dtype=np.int64)
        self._alloc_totals = np.zeros(n_keys, dtype=np.int64)
        self._alloc_maxima = np.zeros(n_keys, dtype=np.int64)

        # -- the sorted replay order -----------------------------------------
        order = np.lexsort((_KIND_PRIORITY[trace.kinds], trace.times))
        kinds_s = trace.kinds[order]
        self._times_s = trace.times[order]
        self._n_events = int(order.size)

        self._mut_pos = np.flatnonzero(
            (kinds_s == KIND_ALLOC) | (kinds_s == KIND_FREE)
        )
        self._smp_pos = np.flatnonzero(kinds_s == KIND_SAMPLE)
        self._samp_addr = trace.addresses[order[self._smp_pos]]
        self._samp_lat = trace.latencies[order[self._smp_pos]]
        # Mutations are rare (the workload is sample-heavy): gather
        # their columns individually and hand the loop plain Python
        # lists — cheaper than permuting the full arrays and pulling
        # NumPy scalars.
        mut_orig = order[self._mut_pos]
        self._mut_is_alloc_arr = kinds_s[self._mut_pos] == KIND_ALLOC
        self._mut_is_alloc = self._mut_is_alloc_arr.tolist()
        self._mut_addr = trace.addresses[mut_orig].tolist()
        self._mut_size_arr = trace.sizes[mut_orig]
        self._mut_size = self._mut_size_arr.tolist()
        # aux is -1 at frees (no callstack); clip before the gather —
        # the value is never read on the free branch.
        if cs_key_ids.size:
            self._mut_kid_arr = cs_key_ids[
                np.maximum(trace.aux[mut_orig], 0)
            ]
        else:
            self._mut_kid_arr = np.zeros(mut_orig.size, dtype=np.int64)
        self._mut_kid = self._mut_kid_arr.tolist()
        # Samples strictly before each mutation, in replay order.
        self._boundaries = np.searchsorted(
            self._smp_pos, self._mut_pos
        ).tolist()

        # Hits accumulate as aligned (key id, latency) chunk pairs; the
        # latency filter runs once per snapshot over the concatenation,
        # not per epoch.
        self._matched_chunks: list[np.ndarray] = []
        self._matched_lat_chunks: list[np.ndarray] = []
        self._unmatched_chunks: list[np.ndarray] = []

        self._next_mut = 0  # mutations applied so far
        self._flushed = 0  # samples matched so far
        self._consumed = 0  # sorted events consumed so far

    # -- cursor state ------------------------------------------------------

    @property
    def total_events(self) -> int:
        """Events in the replay order (samples + mutations + phases)."""
        return self._n_events

    @property
    def consumed_events(self) -> int:
        return self._consumed

    @property
    def consumed_samples(self) -> int:
        return self._flushed

    @property
    def exhausted(self) -> bool:
        return self._consumed >= self._n_events

    # -- checkpoint/restore ------------------------------------------------

    def fingerprint(self) -> str:
        """Cheap identity of the replay order this cursor walks.

        Two attributors share a fingerprint exactly when they were
        built over the same event stream, so a serialised cursor can
        refuse to resume against the wrong trace.
        """
        crc = zlib.crc32(self._times_s.tobytes()) & 0xFFFFFFFF
        return (
            f"{self._n_events}:{self._smp_pos.size}:"
            f"{self._mut_pos.size}:{crc:08x}"
        )

    def _chunk(self, chunks: list[np.ndarray], dtype) -> np.ndarray:
        return (
            np.concatenate(chunks) if chunks else np.empty(0, dtype=dtype)
        )

    def to_state(self) -> dict:
        """JSON-serialisable snapshot of the cursor and its tallies.

        Captures everything :meth:`result` and further advances depend
        on that is *not* a pure function of the trace: the cursor
        indices, the live-range table and the accumulated match/alloc
        tallies. The sorted replay order itself is rebuilt from the
        trace on :meth:`from_state` (it is deterministic), so states
        stay small and cannot disagree with the stream they index.
        """
        return {
            "version": ATTRIBUTOR_STATE_VERSION,
            "fingerprint": self.fingerprint(),
            "consumed": self._consumed,
            "next_mut": self._next_mut,
            "flushed": self._flushed,
            "table_bases": _encode_array(self._table._bases[: self._table.n]),
            "table_ends": _encode_array(self._table._ends[: self._table.n]),
            "table_keys": _encode_array(self._table._keys[: self._table.n]),
            "alloc_counts": _encode_array(self._alloc_counts),
            "alloc_totals": _encode_array(self._alloc_totals),
            "alloc_maxima": _encode_array(self._alloc_maxima),
            "matched": _encode_array(
                self._chunk(self._matched_chunks, np.int64)
            ),
            "matched_lat": _encode_array(
                self._chunk(self._matched_lat_chunks, self._samp_lat.dtype)
            ),
            "unmatched": _encode_array(
                self._chunk(self._unmatched_chunks, self._samp_addr.dtype)
            ),
        }

    @classmethod
    def from_state(
        cls, trace: "ColumnarTrace | TraceFile", state: dict
    ) -> "IncrementalAttributor":
        """Rebuild a cursor over ``trace`` at a serialised position.

        The restored attributor's :meth:`result` and every further
        advance are bit-identical to the attributor the state was
        taken from. Raises :class:`~repro.errors.AttributionError`
        when the state is malformed, from an incompatible layout
        version, or was taken over a different trace.
        """
        if not isinstance(state, dict):
            raise AttributionError("attributor state must be a mapping")
        if state.get("version") != ATTRIBUTOR_STATE_VERSION:
            raise AttributionError(
                "unsupported attributor state version "
                f"{state.get('version')!r} (expected "
                f"{ATTRIBUTOR_STATE_VERSION})"
            )
        attributor = cls(trace)
        if state.get("fingerprint") != attributor.fingerprint():
            raise AttributionError(
                "attributor state was taken over a different trace "
                f"(state {state.get('fingerprint')!r}, trace "
                f"{attributor.fingerprint()!r})"
            )
        try:
            consumed = int(state["consumed"])
            next_mut = int(state["next_mut"])
            flushed = int(state["flushed"])
        except (KeyError, TypeError, ValueError) as exc:
            raise AttributionError(
                f"malformed attributor state cursor: {exc}"
            ) from exc
        if not (
            0 <= consumed <= attributor._n_events
            and 0 <= next_mut <= attributor._mut_pos.size
            and 0 <= flushed <= attributor._smp_pos.size
        ):
            raise AttributionError(
                "attributor state cursor out of range for this trace"
            )
        table = _LiveTable()
        bases = _decode_array(state["table_bases"])
        ends = _decode_array(state["table_ends"])
        keys = _decode_array(state["table_keys"])
        if not (bases.size == ends.size == keys.size):
            raise AttributionError(
                "attributor state live-table columns disagree in length"
            )
        table._bases = bases.astype(np.int64)
        table._ends = ends.astype(np.int64)
        table._keys = keys.astype(np.int64)
        table.n = int(bases.size)
        attributor._table = table
        attributor._alloc_counts = _decode_array(state["alloc_counts"])
        attributor._alloc_totals = _decode_array(state["alloc_totals"])
        attributor._alloc_maxima = _decode_array(state["alloc_maxima"])
        if attributor._alloc_counts.size != len(attributor._keys):
            raise AttributionError(
                "attributor state tallies sized for a different key table"
            )
        attributor._matched_chunks = [_decode_array(state["matched"])]
        attributor._matched_lat_chunks = [_decode_array(state["matched_lat"])]
        attributor._unmatched_chunks = [_decode_array(state["unmatched"])]
        attributor._consumed = consumed
        attributor._next_mut = next_mut
        attributor._flushed = flushed
        return attributor

    # -- advancing ---------------------------------------------------------

    def _flush(self, s0: int, s1: int) -> None:
        addresses = self._samp_addr[s0:s1]
        hit, kids = self._table.match(addresses)
        self._matched_chunks.append(kids)
        self._matched_lat_chunks.append(self._samp_lat[s0:s1][hit])
        self._unmatched_chunks.append(addresses[~hit])

    def _advance_to_position(self, pos: int) -> None:
        """Consume sorted events in ``[consumed, pos)`` (clamped)."""
        pos = max(self._consumed, min(int(pos), self._n_events))
        if pos == self._consumed:
            return
        first_mut = self._next_mut
        mut_pos = self._mut_pos
        while self._next_mut < mut_pos.size and mut_pos[self._next_mut] < pos:
            j = self._next_mut
            cut = self._boundaries[j]
            if cut > self._flushed:
                self._flush(self._flushed, cut)
                self._flushed = cut
            if self._mut_is_alloc[j]:
                self._table.insert(
                    self._mut_addr[j], self._mut_size[j], self._mut_kid[j]
                )
            else:
                self._table.remove(self._mut_addr[j])
            self._next_mut = j + 1
        cut = int(np.searchsorted(self._smp_pos, pos))
        if cut > self._flushed:
            self._flush(self._flushed, cut)
            self._flushed = cut
        if self._next_mut > first_mut:
            consumed = slice(first_mut, self._next_mut)
            alloc = self._mut_is_alloc_arr[consumed]
            if alloc.any():
                kids = self._mut_kid_arr[consumed][alloc]
                sizes = self._mut_size_arr[consumed][alloc]
                self._alloc_counts += np.bincount(
                    kids, minlength=self._alloc_counts.size
                )
                np.add.at(self._alloc_totals, kids, sizes)
                np.maximum.at(self._alloc_maxima, kids, sizes)
        self._consumed = pos

    def advance_time(self, t: float) -> None:
        """Consume every event with timestamp *strictly* below ``t``.

        Events at exactly ``t`` stay unconsumed, so a run of equal
        timestamps is never split across windows — the oracle's
        tie-break order applies within one window whenever the ties are
        finally consumed.
        """
        self._advance_to_position(
            int(np.searchsorted(self._times_s, t, side="left"))
        )

    def advance_events(self, count: int) -> None:
        """Consume the next ``count`` events of the replay order.

        Unlike :meth:`advance_time` this may split a mutation epoch —
        or a run of equal timestamps — anywhere; the cursor resumes
        mid-epoch with the live table intact.
        """
        self._advance_to_position(self._consumed + max(0, int(count)))

    def advance_all(self) -> None:
        self._advance_to_position(self._n_events)

    # -- snapshot ----------------------------------------------------------

    def result(self) -> AttributionResult:
        """Attribution of everything consumed so far (non-destructive:
        snapshotting never moves the cursor)."""
        result = AttributionResult()
        result.max_size.update(self._static_max)
        result.total_allocated.update(self._static_total)
        result.n_allocs.update(self._static_nallocs)

        n_keys = len(self._keys)
        for kid in np.flatnonzero(self._alloc_counts):
            key = self._keys[kid]
            result.max_size[key] = int(self._alloc_maxima[kid])
            result.total_allocated[key] = int(self._alloc_totals[kid])
            result.n_allocs[key] = int(self._alloc_counts[kid])

        result.total_samples = int(self._flushed)
        if self._matched_chunks:
            matched = np.concatenate(self._matched_chunks)
            counts = np.bincount(matched, minlength=n_keys)
            for kid in np.flatnonzero(counts):
                result.misses[self._keys[kid]] = int(counts[kid])
            lats = np.concatenate(self._matched_lat_chunks)
            with_lat = lats >= 0
            if with_lat.any():
                lat_kids = matched[with_lat]
                lat_sums = np.zeros(n_keys, dtype=np.int64)
                np.add.at(lat_sums, lat_kids, lats[with_lat])
                for kid in np.flatnonzero(
                    np.bincount(lat_kids, minlength=n_keys)
                ):
                    result.latency_sum[self._keys[kid]] = int(lat_sums[kid])
        if self._unmatched_chunks:
            unmatched = np.concatenate(self._unmatched_chunks)
            if self._stack_base is not None:
                on_stack = (unmatched >= self._stack_base) & (
                    unmatched < self._stack_base + self._stack_size
                )
                stack_hits = int(np.count_nonzero(on_stack))
            else:
                stack_hits = 0
            if stack_hits:
                result.misses[ObjectKey.stack()] = stack_hits
                result.stack_samples = stack_hits
            result.unresolved_samples = int(unmatched.size) - stack_hits

        return result


def attribute_samples_vector(
    trace: "ColumnarTrace | TraceFile",
) -> AttributionResult:
    """Vectorised twin of :func:`repro._oracles.attribute_samples`
    (bit-for-bit).

    Accepts a columnar trace directly (the fast path: no per-event
    Python objects exist at any point) or a row-oriented
    :class:`TraceFile`, which is columnarised first. Implemented as
    one exhaustive pass of :class:`IncrementalAttributor`, so the
    batch and windowed paths share every line of replay code.
    """
    attributor = IncrementalAttributor(trace)
    attributor.advance_all()
    return attributor.result()


class _OwnerReplay(IncrementalAttributor):
    """The attribution replay, keeping which object each sample hit
    instead of the tallies (so :meth:`result` is meaningless here)."""

    def __init__(self, trace: "ColumnarTrace | TraceFile") -> None:
        super().__init__(trace)
        self.owners = np.full(self._samp_addr.size, -1, dtype=np.int64)

    def _flush(self, s0: int, s1: int) -> None:
        hit, kids = self._table.match(self._samp_addr[s0:s1])
        self.owners[s0:s1][hit] = kids


def sample_owners(
    trace: "ColumnarTrace | TraceFile",
) -> tuple[np.ndarray, np.ndarray, list[ObjectKey]]:
    """Every sample's address and owning object, in replay order.

    Returns ``(addresses, key_ids, keys)``: ``key_ids[i]`` indexes
    ``keys`` for the object sample ``i`` hit at sample time, or is -1
    where it hit no live object (stack, wild or stale pointers). The
    matching is the replay :func:`attribute_samples_vector` counts.
    """
    replay = _OwnerReplay(trace)
    replay.advance_all()
    return replay._samp_addr, replay.owners, replay._keys
