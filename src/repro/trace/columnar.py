"""Columnar (structure-of-arrays) trace view and binary format.

The JSONL trace is the interchange format: self-describing, greppable,
salvageable line by line. It is also the analysis bottleneck — loading
re-parses and re-checksums every line, and attribution then walks a
Python list of dataclass events. :class:`ColumnarTrace` is the same
information content laid out for array kernels: one NumPy column per
field (time/kind/rank/address/size/latency) over *all* events, with
the per-event variable-width payloads (allocation call-stacks, phase
function names, allocator names) interned into side tables referenced
by integer id. Sample-heavy traces — the paper's shape: a few thousand
allocation events under hundreds of thousands of PEBS samples — become
a handful of dense arrays the vectorised attribution kernel
(:mod:`repro.analysis.vectorattr`) consumes without any per-event
Python work.

The tracer (:mod:`repro.trace.tracer`) writes this form directly, and
profiling and analysis use no other. Round-trips with the row form are
lossless in both directions (:meth:`ColumnarTrace.from_tracefile` /
:meth:`to_tracefile`); :class:`TraceFile` remains as the JSONL codec
and as the input of the per-event oracles.

On disk the trace has two containers with identical information and
identical validation. The default is one ``.npz`` member archive: the
event columns, the static-variable columns, a JSON ``header`` member
carrying the scalars and interned tables, and a JSON ``manifest``
member with a CRC-32 per member. The second (:meth:`ColumnarTrace.
save_dir`) is the *uncompressed directory container* — one plain
``.npy`` file per column plus ``header.json``/``manifest.json`` — the
mmap-able variant the shared trace plane (:mod:`repro.trace.shared`)
builds on, since zip-packed ``np.savez`` members cannot be
memory-mapped. ``load(..., mmap=True)`` hands out read-only
memory-mapped columns from a directory container; the page cache then
shares one physical copy across every process on the host.

Like the JSONL path, loads are strict by default (first damaged member
raises :class:`~repro.errors.TraceError`) and ``salvage=True``
recovers what it can, attaching a
:class:`~repro.trace.tracefile.SalvageReport`: a damaged *latency*
column degrades to latency-less samples, damaged event columns drop
the events but keep statics and metadata, and only a damaged header or
manifest is fatal. Writes are atomic (temp file + rename + fsync).
"""

from __future__ import annotations

import io
import json
import zipfile
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.errors import TraceError
from repro.ioutil import atomic_write_bytes
from repro.runtime.callstack import CallStack, Frame
from repro.trace.events import (
    AllocEvent,
    FreeEvent,
    PhaseEvent,
    SampleEvent,
    StaticVarRecord,
)
from repro.trace.tracefile import SalvageReport, TraceFile

#: Event-kind codes of the ``kinds`` column.
KIND_ALLOC = 0
KIND_FREE = 1
KIND_SAMPLE = 2
KIND_PHASE = 3

#: ``latencies`` value for samples without a latency (and non-samples).
NO_LATENCY = -1

_SCHEMA = "repro-columnar/1"

#: JSON member file names of the uncompressed directory container.
_DIR_HEADER = "header.json"
_DIR_MANIFEST = "manifest.json"

#: Event columns that must all be intact for events to be recovered.
_CORE_COLUMNS = (
    "times",
    "kinds",
    "event_ranks",
    "addresses",
    "sizes",
    "aux",
    "allocator_ids",
)
#: Every per-event column.
EVENT_COLUMNS = (*_CORE_COLUMNS, "latencies")
_STATIC_COLUMNS = ("static_ranks", "static_addresses", "static_sizes")

COLUMN_DTYPES = {
    "times": np.float64,
    "kinds": np.uint8,
    "event_ranks": np.int32,
    "addresses": np.int64,
    "sizes": np.int64,
    "latencies": np.int64,
    "aux": np.int32,
    "allocator_ids": np.int32,
    "static_ranks": np.int32,
    "static_addresses": np.int64,
    "static_sizes": np.int64,
}


def _empty(name: str) -> np.ndarray:
    return np.empty(0, dtype=COLUMN_DTYPES[name])


@dataclass
class ColumnarTrace:
    """Structure-of-arrays twin of :class:`~repro.trace.tracefile.TraceFile`.

    Event order is the trace's own order (the tracer appends in time
    order; attribution re-sorts by time/priority either way). ``aux``
    holds the interned call-stack id for allocations and the interned
    function id for phase events (``-1`` elsewhere); ``allocator_ids``
    the interned allocator name for allocations; ``latencies`` the
    sampled access cost with :data:`NO_LATENCY` meaning "not recorded".
    """

    application: str = ""
    ranks: int = 1
    sampling_period: int = 1
    metadata: dict = field(default_factory=dict)

    times: np.ndarray = field(default_factory=lambda: _empty("times"))
    kinds: np.ndarray = field(default_factory=lambda: _empty("kinds"))
    event_ranks: np.ndarray = field(
        default_factory=lambda: _empty("event_ranks")
    )
    addresses: np.ndarray = field(default_factory=lambda: _empty("addresses"))
    sizes: np.ndarray = field(default_factory=lambda: _empty("sizes"))
    latencies: np.ndarray = field(default_factory=lambda: _empty("latencies"))
    aux: np.ndarray = field(default_factory=lambda: _empty("aux"))
    allocator_ids: np.ndarray = field(
        default_factory=lambda: _empty("allocator_ids")
    )

    #: Interned side tables.
    callstacks: tuple[CallStack, ...] = ()
    functions: tuple[str, ...] = ()
    allocators: tuple[str, ...] = ()

    #: Static variables, columnar too.
    static_names: tuple[str, ...] = ()
    static_ranks: np.ndarray = field(
        default_factory=lambda: _empty("static_ranks")
    )
    static_addresses: np.ndarray = field(
        default_factory=lambda: _empty("static_addresses")
    )
    static_sizes: np.ndarray = field(
        default_factory=lambda: _empty("static_sizes")
    )

    #: Populated by ``load(salvage=True)``; None on clean/strict loads.
    salvage: SalvageReport | None = field(
        default=None, compare=False, repr=False
    )

    # -- shape ---------------------------------------------------------------

    @property
    def n_events(self) -> int:
        return int(self.times.size)

    @property
    def n_statics(self) -> int:
        return len(self.static_names)

    @property
    def n_samples(self) -> int:
        return int(np.count_nonzero(self.kinds == KIND_SAMPLE))

    @property
    def n_allocs(self) -> int:
        return int(np.count_nonzero(self.kinds == KIND_ALLOC))

    @property
    def duration(self) -> float:
        if self.times.size == 0:
            return 0.0
        return float(self.times.max())

    def select(self, mask: np.ndarray) -> "ColumnarTrace":
        """New trace keeping only the events where ``mask`` is True.

        Side tables, statics and metadata are shared/copied whole —
        interned ids stay valid, so this is the columnar analogue of
        the Paramedir narrowing copy.
        """
        mask = np.asarray(mask, dtype=bool)
        return ColumnarTrace(
            application=self.application,
            ranks=self.ranks,
            sampling_period=self.sampling_period,
            metadata=dict(self.metadata),
            **{name: getattr(self, name)[mask] for name in EVENT_COLUMNS},
            callstacks=self.callstacks,
            functions=self.functions,
            allocators=self.allocators,
            static_names=self.static_names,
            static_ranks=self.static_ranks,
            static_addresses=self.static_addresses,
            static_sizes=self.static_sizes,
        )

    # -- conversion ----------------------------------------------------------

    @classmethod
    def from_tracefile(cls, trace: TraceFile) -> "ColumnarTrace":
        """Columnarise ``trace`` in one pass (lossless)."""
        n = len(trace.events)
        times = np.empty(n, dtype=np.float64)
        kinds = np.empty(n, dtype=np.uint8)
        event_ranks = np.empty(n, dtype=np.int32)
        addresses = np.zeros(n, dtype=np.int64)
        sizes = np.zeros(n, dtype=np.int64)
        latencies = np.full(n, NO_LATENCY, dtype=np.int64)
        aux = np.full(n, -1, dtype=np.int32)
        allocator_ids = np.full(n, -1, dtype=np.int32)

        cs_ids: dict[CallStack, int] = {}
        fn_ids: dict[str, int] = {}
        al_ids: dict[str, int] = {}

        for i, event in enumerate(trace.events):
            times[i] = event.time
            event_ranks[i] = event.rank
            if isinstance(event, AllocEvent):
                kinds[i] = KIND_ALLOC
                addresses[i] = event.address
                sizes[i] = event.size
                aux[i] = cs_ids.setdefault(event.callstack, len(cs_ids))
                allocator_ids[i] = al_ids.setdefault(
                    event.allocator, len(al_ids)
                )
            elif isinstance(event, FreeEvent):
                kinds[i] = KIND_FREE
                addresses[i] = event.address
            elif isinstance(event, SampleEvent):
                kinds[i] = KIND_SAMPLE
                addresses[i] = event.address
                if event.latency_cycles is not None:
                    latencies[i] = event.latency_cycles
            elif isinstance(event, PhaseEvent):
                kinds[i] = KIND_PHASE
                aux[i] = fn_ids.setdefault(event.function, len(fn_ids))
            else:
                raise TraceError(f"unknown event type {type(event).__name__}")

        statics = trace.statics
        return cls(
            application=trace.application,
            ranks=trace.ranks,
            sampling_period=trace.sampling_period,
            metadata=dict(trace.metadata),
            times=times,
            kinds=kinds,
            event_ranks=event_ranks,
            addresses=addresses,
            sizes=sizes,
            latencies=latencies,
            aux=aux,
            allocator_ids=allocator_ids,
            callstacks=tuple(cs_ids),
            functions=tuple(fn_ids),
            allocators=tuple(al_ids),
            static_names=tuple(s.name for s in statics),
            static_ranks=np.fromiter(
                (s.rank for s in statics), dtype=np.int32, count=len(statics)
            ),
            static_addresses=np.fromiter(
                (s.address for s in statics),
                dtype=np.int64,
                count=len(statics),
            ),
            static_sizes=np.fromiter(
                (s.size for s in statics), dtype=np.int64, count=len(statics)
            ),
        )

    def to_tracefile(self) -> TraceFile:
        """Rebuild the row-oriented trace (lossless inverse)."""
        trace = TraceFile(
            application=self.application,
            ranks=self.ranks,
            sampling_period=self.sampling_period,
            metadata=dict(self.metadata),
        )
        trace.statics = [
            StaticVarRecord(
                name=self.static_names[i],
                rank=int(self.static_ranks[i]),
                address=int(self.static_addresses[i]),
                size=int(self.static_sizes[i]),
            )
            for i in range(self.n_statics)
        ]
        times = self.times.tolist()
        kinds = self.kinds.tolist()
        ranks = self.event_ranks.tolist()
        addresses = self.addresses.tolist()
        sizes = self.sizes.tolist()
        latencies = self.latencies.tolist()
        aux = self.aux.tolist()
        allocator_ids = self.allocator_ids.tolist()
        events = trace.events
        for i in range(self.n_events):
            kind = kinds[i]
            if kind == KIND_ALLOC:
                events.append(
                    AllocEvent(
                        time=times[i],
                        rank=ranks[i],
                        address=addresses[i],
                        size=sizes[i],
                        callstack=self.callstacks[aux[i]],
                        allocator=self.allocators[allocator_ids[i]],
                    )
                )
            elif kind == KIND_FREE:
                events.append(
                    FreeEvent(
                        time=times[i], rank=ranks[i], address=addresses[i]
                    )
                )
            elif kind == KIND_SAMPLE:
                lat = latencies[i]
                events.append(
                    SampleEvent(
                        time=times[i],
                        rank=ranks[i],
                        address=addresses[i],
                        latency_cycles=None if lat == NO_LATENCY else lat,
                    )
                )
            elif kind == KIND_PHASE:
                events.append(
                    PhaseEvent(
                        time=times[i],
                        rank=ranks[i],
                        function=self.functions[aux[i]],
                    )
                )
            else:
                raise TraceError(f"unknown event kind code {kind}")
        return trace

    # -- persistence ---------------------------------------------------------

    def _header_dict(self) -> dict:
        return {
            "schema": _SCHEMA,
            "application": self.application,
            "ranks": self.ranks,
            "sampling_period": self.sampling_period,
            "metadata": self.metadata,
            "n_events": self.n_events,
            "n_statics": self.n_statics,
            "callstacks": [
                [[f.module, f.function, f.file, f.line] for f in cs]
                for cs in self.callstacks
            ],
            "functions": list(self.functions),
            "allocators": list(self.allocators),
            "static_names": list(self.static_names),
        }

    def _columns(self) -> dict[str, np.ndarray]:
        return {
            "times": self.times,
            "kinds": self.kinds,
            "event_ranks": self.event_ranks,
            "addresses": self.addresses,
            "sizes": self.sizes,
            "latencies": self.latencies,
            "aux": self.aux,
            "allocator_ids": self.allocator_ids,
            "static_ranks": self.static_ranks,
            "static_addresses": self.static_addresses,
            "static_sizes": self.static_sizes,
        }

    def _encode(self) -> tuple[dict[str, np.ndarray], bytes, bytes]:
        """What both containers write: the columns, the JSON header
        and the manifest holding a CRC-32 of every column and of the
        header."""
        columns = self._columns()
        header = json.dumps(
            self._header_dict(), sort_keys=True, separators=(",", ":")
        ).encode()
        crcs = {
            name: zlib.crc32(np.ascontiguousarray(arr).tobytes())
            for name, arr in columns.items()
        }
        crcs["header"] = zlib.crc32(header)
        manifest = json.dumps(
            {"schema": _SCHEMA, "crc": crcs},
            sort_keys=True,
            separators=(",", ":"),
        ).encode()
        return columns, header, manifest

    def to_bytes(self) -> bytes:
        """The full ``.npz`` payload (columns + header + manifest)."""
        columns, header, manifest = self._encode()
        buf = io.BytesIO()
        np.savez(
            buf,
            **columns,
            header=np.frombuffer(header, dtype=np.uint8),
            manifest=np.frombuffer(manifest, dtype=np.uint8),
        )
        return buf.getvalue()

    def save(self, path: str | Path) -> None:
        """Write the binary trace atomically (temp file + rename)."""
        atomic_write_bytes(path, self.to_bytes())

    def save_dir(self, path: str | Path) -> None:
        """Write the uncompressed directory container (mmap-able).

        Same information as :meth:`save`, laid out as one plain
        ``.npy`` file per column plus ``header.json`` and
        ``manifest.json``, so :meth:`load` with ``mmap=True`` can hand
        out read-only memory-mapped columns (zip-packed ``.npz``
        members cannot be memory-mapped). Each member write is atomic
        and the manifest lands last, so a torn writer leaves a
        container the loader rejects (strict) or salvages — never one
        it silently misreads.
        """
        path = Path(path)
        path.mkdir(parents=True, exist_ok=True)
        columns, header, manifest = self._encode()
        for name, arr in columns.items():
            buf = io.BytesIO()
            np.save(buf, np.ascontiguousarray(arr))
            atomic_write_bytes(path / f"{name}.npy", buf.getvalue())
        atomic_write_bytes(path / _DIR_HEADER, header)
        atomic_write_bytes(path / _DIR_MANIFEST, manifest)

    @classmethod
    def from_header_and_columns(
        cls, header: dict, columns: dict[str, np.ndarray]
    ) -> "ColumnarTrace":
        """Assemble a trace from a decoded header dict plus one array
        per column (the shared trace plane's attach path; the caller
        has already verified checksums)."""
        callstacks = tuple(
            CallStack(
                frames=tuple(
                    Frame(module=m, function=fn, file=fi, line=ln)
                    for m, fn, fi, ln in frames
                )
            )
            for frames in header.get("callstacks", [])
        )
        return cls(
            application=header.get("application", ""),
            ranks=int(header.get("ranks", 1)),
            sampling_period=int(header.get("sampling_period", 1)),
            metadata=header.get("metadata", {}),
            times=columns["times"],
            kinds=columns["kinds"],
            event_ranks=columns["event_ranks"],
            addresses=columns["addresses"],
            sizes=columns["sizes"],
            latencies=columns["latencies"],
            aux=columns["aux"],
            allocator_ids=columns["allocator_ids"],
            callstacks=callstacks,
            functions=tuple(header.get("functions", [])),
            allocators=tuple(header.get("allocators", [])),
            static_names=tuple(header.get("static_names", [])),
            static_ranks=columns["static_ranks"],
            static_addresses=columns["static_addresses"],
            static_sizes=columns["static_sizes"],
        )

    @staticmethod
    def _read_dir_members(path: Path, mmap: bool) -> dict[str, np.ndarray]:
        """Read the directory container's members into the same shape
        the archive loader produces. Missing or unreadable members are
        simply absent — the shared validation body then applies the
        identical strict/salvage rules for both containers."""
        members: dict[str, np.ndarray] = {}
        for name in COLUMN_DTYPES:
            member = path / f"{name}.npy"
            try:
                members[name] = np.load(
                    member,
                    mmap_mode="r" if mmap else None,
                    allow_pickle=False,
                )
            except (OSError, ValueError):
                continue
        for filename in (_DIR_HEADER, _DIR_MANIFEST):
            try:
                data = (path / filename).read_bytes()
            except OSError:
                continue
            members[filename.removesuffix(".json")] = np.frombuffer(
                data, dtype=np.uint8
            )
        return members

    @classmethod
    def load(
        cls,
        path: str | Path,
        salvage: bool = False,
        mmap: bool = False,
    ) -> "ColumnarTrace":
        """Read a binary columnar trace back (either container).

        Strict mode (default) raises :class:`TraceError` on any
        missing, checksum-failing or mis-shaped member. ``salvage=True``
        degrades instead: a damaged ``latencies`` column is replaced by
        the no-latency sentinel, damaged event columns drop all events,
        damaged static columns drop the statics — each recorded in the
        attached :class:`SalvageReport`. A damaged/missing header or
        manifest is fatal either way, since nothing can be attributed
        without the interned tables.

        ``mmap=True`` (directory container only) returns read-only
        memory-mapped columns instead of eager copies: loads share one
        page-cache copy per host and writes through the arrays raise.
        Checksums are verified either way.
        """
        path = Path(path)
        if path.is_dir():
            members = cls._read_dir_members(path, mmap=mmap)
        else:
            if mmap:
                raise TraceError(
                    f"{path}: mmap=True requires the directory "
                    "container (save_dir); zip-packed .npz members "
                    "cannot be memory-mapped"
                )
            try:
                with np.load(path, allow_pickle=False) as npz:
                    members = {name: npz[name] for name in npz.files}
            except (OSError, ValueError, zipfile.BadZipFile, KeyError) as exc:
                raise TraceError(f"{path}: unreadable columnar trace: {exc}")
        try:
            manifest = json.loads(bytes(members.pop("manifest").tobytes()))
            crcs = dict(manifest["crc"])
        except (KeyError, ValueError, AttributeError) as exc:
            raise TraceError(f"{path}: missing/corrupt manifest: {exc}")
        if manifest.get("schema") != _SCHEMA:
            raise TraceError(
                f"{path}: unsupported schema {manifest.get('schema')!r}"
            )

        damage: list[str] = []

        def damaged_member(name: str, reason: str) -> None:
            message = f"{path}:{name}: {reason}"
            if not salvage:
                raise TraceError(message)
            damage.append(message)

        def intact(name: str) -> np.ndarray | None:
            """The member iff present with a matching checksum."""
            arr = members.get(name)
            if arr is None:
                damaged_member(name, "member missing")
                return None
            if name not in crcs:
                damaged_member(name, "member not covered by the manifest")
                return None
            if zlib.crc32(np.ascontiguousarray(arr).tobytes()) != crcs[name]:
                damaged_member(name, "checksum mismatch (corrupt member)")
                return None
            return arr

        header_arr = members.get("header")
        if (
            header_arr is None
            or "header" not in crcs
            or zlib.crc32(np.ascontiguousarray(header_arr).tobytes())
            != crcs["header"]
        ):
            raise TraceError(f"{path}: header missing or corrupt")
        try:
            header = json.loads(bytes(header_arr.tobytes()))
        except ValueError as exc:
            raise TraceError(f"{path}: undecodable header: {exc}")
        n_events = int(header.get("n_events", 0))
        n_statics = int(header.get("n_statics", 0))

        columns: dict[str, np.ndarray] = {}
        events_lost = False
        for name in _CORE_COLUMNS:
            arr = intact(name)
            if arr is not None and arr.shape != (n_events,):
                damaged_member(
                    name,
                    f"expected {n_events} entries, found {arr.shape}",
                )
                arr = None
            if arr is None:
                events_lost = True
            else:
                columns[name] = arr.astype(COLUMN_DTYPES[name], copy=False)
        latencies = intact("latencies")
        if latencies is not None and latencies.shape != (n_events,):
            damaged_member(
                "latencies",
                f"expected {n_events} entries, found {latencies.shape}",
            )
            latencies = None
        if latencies is None:
            latencies = np.full(n_events, NO_LATENCY, dtype=np.int64)
        if events_lost:
            # Salvage mode: drop every event, keep what the header and
            # the static columns still describe.
            n_events = 0
            columns = {name: _empty(name) for name in _CORE_COLUMNS}
            latencies = _empty("latencies")

        statics_lost = False
        static_cols: dict[str, np.ndarray] = {}
        for name in _STATIC_COLUMNS:
            arr = intact(name)
            if arr is not None and arr.shape != (n_statics,):
                damaged_member(
                    name,
                    f"expected {n_statics} entries, found {arr.shape}",
                )
                arr = None
            if arr is None:
                statics_lost = True
            else:
                static_cols[name] = arr.astype(
                    COLUMN_DTYPES[name], copy=False
                )
        if statics_lost:
            header = {**header, "static_names": []}
            static_cols = {name: _empty(name) for name in _STATIC_COLUMNS}

        trace = cls.from_header_and_columns(
            header,
            {
                **columns,
                **static_cols,
                "latencies": latencies.astype(np.int64, copy=False),
            },
        )
        if salvage:
            # Samples that only lost their latency column count as kept.
            lost = (int(header.get("n_events", 0)) if events_lost else 0) + (
                n_statics if statics_lost else 0
            )
            trace.salvage = SalvageReport(
                recovered_records=trace.n_events + trace.n_statics,
                damaged_lines=len(damage),
                lost_records=lost,
                details=tuple(damage),
            )
        return trace


def is_columnar_dir(path: str | Path) -> bool:
    """Sniff whether ``path`` is an uncompressed directory container."""
    path = Path(path)
    try:
        return path.is_dir() and (path / _DIR_MANIFEST).is_file()
    except OSError:
        return False


def is_columnar_trace(path: str | Path) -> bool:
    """Sniff whether ``path`` holds a binary columnar trace.

    ``.npz`` archives are zip files; the JSONL format never starts
    with the zip magic, so four bytes decide. A directory holding a
    ``manifest.json`` is the uncompressed container.
    """
    if is_columnar_dir(path):
        return True
    try:
        with open(path, "rb") as fh:
            return fh.read(4) == b"PK\x03\x04"
    except OSError:
        return False


def load_any_trace(
    path: str | Path, salvage: bool = False, mmap: bool = False
) -> "TraceFile | ColumnarTrace":
    """Load any trace container, deciding by content, not extension."""
    if is_columnar_trace(path):
        return ColumnarTrace.load(path, salvage=salvage, mmap=mmap)
    if mmap:
        raise TraceError(
            f"{path}: mmap=True requires a columnar directory container"
        )
    return TraceFile.load(path, salvage=salvage)
