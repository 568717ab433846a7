"""Application model base: inventories, streams, profiling, replay.

A :class:`SimApplication` describes one workload the way the paper's
framework perceives it:

* an **inventory** of allocation sites (:class:`ObjectSpec`) — the
  call-stack, per-instance size, instance count, lifetime (init-time
  persistent vs per-iteration churn scoped to a phase), static/dynamic
  kind, the share of LLC misses the object receives and the spatial
  access pattern of those misses;
* a **phase timeline** (:class:`PhaseSpec`) — which function is
  executing when, and which objects it touches (drives Figure 5);
* **calibration constants** (:class:`AppCalibration`) — the paper's
  DDR-run Figure of Merit, runtime and memory-boundedness, which
  anchor the execution model's absolute scale (the simulation provides
  the *relative* per-object structure).

All byte sizes in the inventory are *real* (paper-scale) values; the
simulation runs in a world scaled down by :attr:`SimApplication.scale`
so streams stay laptop-sized while capacity *ratios* (object/budget,
footprint/MCDRAM) are preserved. Instance counts, call-stacks and
time stamps are unscaled.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.errors import WorkloadError
from repro.runtime.process import SimProcess
from repro.runtime.symbols import FunctionSymbol, ModuleImage
from repro.trace.columnar import ColumnarTrace
from repro.trace.tracer import Tracer, TracerConfig
from repro.units import CACHE_LINE, GIB, MIB


@dataclass(frozen=True, slots=True)
class AccessPattern:
    """Spatial shape of one object's LLC misses.

    ``kind``:
      * ``"sequential"`` — a strided walk over the hot span, identical
        every iteration (streaming arrays; cache-mode friendly when the
        hot span fits);
      * ``"random"`` — a fixed random touch set over the hot span
        (sparse/indirect access; conflict-prone in a direct-mapped
        cache).

    ``hot_fraction`` is the part of the object actually touched each
    iteration (hot working set).
    """

    kind: str = "sequential"
    hot_fraction: float = 1.0
    #: Times each hot line is re-referenced per iteration; drives the
    #: analytic MCDRAM-cache-mode hit model (fine-grained reuse means
    #: a line survives in a direct-mapped cache between touches).
    reref_per_iteration: float = 4.0
    #: Mean access cost in cycles of one miss to this object, as a
    #: Xeon-style PEBS PMU would report it. None: derived from the
    #: pattern kind (random gathers pay TLB/row-buffer misses on top
    #: of the raw access).
    mean_latency_cycles: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("sequential", "random"):
            raise WorkloadError(f"unknown access pattern {self.kind!r}")
        if not 0.0 < self.hot_fraction <= 1.0:
            raise WorkloadError(
                f"hot fraction must be in (0,1], got {self.hot_fraction}"
            )
        if self.reref_per_iteration <= 0:
            raise WorkloadError("re-reference rate must be positive")
        if self.mean_latency_cycles is not None and self.mean_latency_cycles <= 0:
            raise WorkloadError("latency must be positive")

    @property
    def latency_cycles(self) -> int:
        """Effective per-miss access cost in cycles."""
        if self.mean_latency_cycles is not None:
            return self.mean_latency_cycles
        return 280 if self.kind == "random" else 160


@dataclass(frozen=True, slots=True)
class ObjectSpec:
    """One allocation site (or static variable) of an application."""

    name: str
    #: Call-stack, ROOT first: sequence of (function, line) pairs.
    #: Empty for statics.
    callstack: tuple[tuple[str, int], ...]
    #: Real bytes per allocation instance (paper scale).
    size: int
    #: Allocation instances at init (persistent objects only).
    count: int = 1
    #: Name of the phase this site is allocated in and freed after,
    #: once per iteration (allocation churn à la Lulesh). None for
    #: init-time persistent objects.
    churn_phase: str | None = None
    static: bool = False
    #: Relative share of the application's heap/static LLC misses.
    miss_weight: float = 0.0
    pattern: AccessPattern = AccessPattern()
    #: Phases (by name) whose execution touches this object; empty
    #: means "all phases" for persistent/static objects and "the churn
    #: phase" for churn objects.
    phases: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise WorkloadError(f"object {self.name!r}: size must be positive")
        if self.count < 1:
            raise WorkloadError(f"object {self.name!r}: count must be >= 1")
        if self.miss_weight < 0:
            raise WorkloadError(f"object {self.name!r}: negative miss weight")
        if self.static and self.churn_phase is not None:
            raise WorkloadError(f"object {self.name!r}: statics cannot churn")
        if not self.static and not self.callstack:
            raise WorkloadError(f"object {self.name!r}: dynamic needs a stack")

    @property
    def churn(self) -> bool:
        return self.churn_phase is not None

    def touches(self, phase_function: str) -> bool:
        """Is this object accessed while ``phase_function`` executes?"""
        if self.churn:
            touched = self.phases or (self.churn_phase,)
            return phase_function in touched
        return not self.phases or phase_function in self.phases


@dataclass(frozen=True, slots=True)
class PhaseSpec:
    """One phase (function) of the iteration body."""

    function: str
    #: Fraction of each iteration's wall time spent here.
    duration_fraction: float
    #: Instructions (relative units) executed per iteration in this
    #: phase — used to derive the MIPS series of Figure 5.
    instruction_weight: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.duration_fraction <= 1.0:
            raise WorkloadError("phase duration fraction must be in (0,1]")


@dataclass(frozen=True, slots=True)
class AppGeometry:
    """Execution geometry (Table I row: "Execution geometry")."""

    ranks: int = 64
    threads_per_rank: int = 4

    @property
    def total_threads(self) -> int:
        return self.ranks * self.threads_per_rank


@dataclass(frozen=True, slots=True)
class AppCalibration:
    """Anchors tying the model to the paper's measured absolute scale."""

    #: Figure of Merit of the all-DDR run (Figure 4's green line).
    fom_ddr: float
    #: Wall-clock of the all-DDR run, seconds.
    ddr_time: float
    #: Fraction of the DDR run spent waiting on main memory.
    memory_bound_fraction: float
    fom_name: str = "FOM"
    fom_units: str = "units/s"

    def __post_init__(self) -> None:
        if self.fom_ddr <= 0 or self.ddr_time <= 0:
            raise WorkloadError("calibration values must be positive")
        if not 0.0 < self.memory_bound_fraction < 1.0:
            raise WorkloadError("memory-bound fraction must be in (0,1)")

    @property
    def work(self) -> float:
        """Total FOM units of work in one run."""
        return self.fom_ddr * self.ddr_time

    @property
    def compute_time(self) -> float:
        return self.ddr_time * (1.0 - self.memory_bound_fraction)


#: Per-miss cost of a stack (spill) access in cycles.
STACK_LATENCY_CYCLES = 200


@dataclass(frozen=True, slots=True)
class WindowTruth:
    """Full miss counts of one ``run_timeline`` window — the unit the
    online evaluator scores placements against."""

    t0: float
    t1: float
    misses_by_site: dict[str, int]

    @property
    def total_misses(self) -> int:
        return sum(self.misses_by_site.values())


@dataclass
class GroundTruth:
    """What the simulated hardware knows (the framework only sees the
    sampled trace)."""

    #: Full LLC-miss counts per site name; stack misses under "<stack>".
    misses_by_site: dict[str, int] = field(default_factory=dict)
    #: Summed access latency (cycles) per site name.
    latency_by_site: dict[str, float] = field(default_factory=dict)
    #: Full miss stream in program order (scaled addresses).
    addresses: np.ndarray = field(default_factory=lambda: np.zeros(0, np.uint64))
    times: np.ndarray = field(default_factory=lambda: np.zeros(0, float))
    total_misses: int = 0
    #: Per-window miss counts in timeline order (phase-resolved truth).
    windows: list[WindowTruth] = field(default_factory=list)

    def miss_share(self, site: str) -> float:
        if self.total_misses == 0:
            return 0.0
        return self.misses_by_site.get(site, 0) / self.total_misses


@dataclass
class ProfilingRun:
    """Output of the instrumented (step 1) run of one rank.

    ``trace`` is always a :class:`~repro.trace.columnar.ColumnarTrace`:
    the tracer's merged columns for an in-process run, or the
    zero-copy view a shared trace plane hands out. Every consumer
    reads the columns as they are; :meth:`ColumnarTrace.to_tracefile`
    is only the JSONL export codec. ``tracer``/``process`` are present
    only when the run came from an in-process instrumented execution —
    a run reconstructed from a shared plane has neither, since raw
    tracer/process state is process-local and never crosses the
    plane.
    """

    trace: ColumnarTrace
    ground_truth: GroundTruth
    tracer: Tracer | None = None
    process: SimProcess | None = None
    #: site name -> ObjectSpec for convenience.
    sites: dict[str, ObjectSpec] = field(default_factory=dict)


@dataclass
class ReplayResult:
    """Outcome of re-running the allocation timeline under a hook."""

    #: site name -> list of serving allocator names, one per instance.
    placements: dict[str, list[str]] = field(default_factory=dict)
    #: Fast-memory high-water mark in *real* (unscaled) bytes.
    hbw_hwm_bytes: int = 0
    #: Interposition + memkind-slow-path seconds (real, per rank).
    alloc_overhead_seconds: float = 0.0
    #: Stats object of the hook, if any.
    hook: object | None = None
    #: site name -> list of promoted *fractions* per instance (page-
    #: granular policies like numactl split objects across tiers).
    promoted_fractions: dict[str, list[float]] = field(default_factory=dict)

    def promoted_fraction(self, site: str, fast_allocator: str) -> float:
        """Average fraction of a site's traffic served by fast memory."""
        if site in self.promoted_fractions:
            fractions = self.promoted_fractions[site]
            return sum(fractions) / len(fractions) if fractions else 0.0
        served = self.placements.get(site, [])
        if not served:
            return 0.0
        return sum(1 for a in served if a == fast_allocator) / len(served)


def _round_robin_order(sizes: list[int], chunks: int = 8) -> np.ndarray:
    """Permutation of the concatenation of arrays of ``sizes`` that
    merges them round-robin: the first of ``chunks`` near-equal pieces
    of each array in turn (``np.array_split`` sizing), then the second
    pieces, and so on, keeping each array's own order."""
    sizes_arr = np.asarray(sizes, dtype=np.intp)
    starts = np.cumsum(sizes_arr) - sizes_arr
    quotient, remainder = np.divmod(sizes_arr, chunks)
    chunk = np.arange(chunks)[:, None]
    lengths = (quotient + (chunk < remainder)).ravel()
    begins = (starts + chunk * quotient + np.minimum(chunk, remainder)).ravel()
    firsts = np.cumsum(lengths) - lengths
    return np.repeat(begins - firsts, lengths) + np.arange(lengths.sum())


@dataclass(frozen=True, slots=True)
class _WindowPlan:
    """A window's miss stream with the sites' base addresses left out.

    Within one profiling run the touch sets, the per-window miss count
    of each site and the stack share of each phase are fixed, so every
    window of one phase with the same sites present merges the same
    offsets in the same order. Only the bases move (churn objects are
    reallocated each iteration). Each column is already in merged
    order and read-only.
    """

    #: Segment of each miss: the index of its site in the window's
    #: present sites, the stack last.
    segments: np.ndarray
    #: Byte offset of each miss from its segment's base.
    offsets: np.ndarray
    #: Access cost of each miss in cycles.
    latencies: np.ndarray
    #: ``arange(n) + 0.5``, the misses' positions in the window.
    ramp: np.ndarray
    #: Misses per site (heap/static in inventory order, then "<stack>").
    counts: dict[str, int]


class SimApplication:
    """Base class: subclasses fill the class attributes below."""

    #: Short identifier, e.g. ``"hpcg"``.
    name: str = "app"
    #: Pretty name for tables, e.g. ``"HPCG 3.0mod"``.
    title: str = "Application"
    language: str = "C++"
    parallelism: str = "MPI+OpenMP"
    problem_size: str = ""
    #: Table I "Lines of code".
    lines_of_code: int = 0
    #: Table I "Allocation statements", m/r/f/n/d/a/D format.
    allocation_statements: str = ""
    #: Table I "Number of allocations/process/second" (includes small
    #: untracked allocations the simulation does not replay).
    allocs_per_second_declared: float = 0.0
    geometry: AppGeometry = AppGeometry()
    calibration: AppCalibration = AppCalibration(
        fom_ddr=1.0, ddr_time=100.0, memory_bound_fraction=0.5
    )
    #: World scale: simulated bytes per real byte.
    scale: float = 1.0 / 64.0
    #: Iterations of the simulated main loop.
    n_iterations: int = 10
    #: Total LLC misses to synthesise over the run (full stream; the
    #: PEBS sampler sees 1/period of them).
    stream_misses: int = 50_000
    #: PEBS sampling period for this workload, chosen so the sampled
    #: count matches Table I's "Number of samples/process" (the paper
    #: uses 37,589 on hardware against billions of misses).
    sampling_period: int = 7
    #: Share of all LLC misses hitting the stack (register spills,
    #: automatic arrays) — traffic only numactl/cache-mode can serve
    #: from fast memory.
    stack_miss_fraction: float = 0.02
    #: Phases whose execution produces the stack misses; empty means
    #: "all phases, weighted by duration". SNAP concentrates its
    #: register-spill traffic in ``outer_src_calc`` (Figure 5).
    stack_phases: tuple[str, ...] = ()
    #: Real allocations each simulated allocation stands for (used to
    #: scale interposition/memkind overhead to Table I allocation
    #: rates).
    alloc_count_multiplier: float = 1.0
    #: Inventory of allocation sites and statics.
    objects: tuple[ObjectSpec, ...] = ()
    #: Iteration body phases (one generic phase by default).
    phases: tuple[PhaseSpec, ...] = (PhaseSpec("main_loop", 1.0),)
    #: Init-phase duration as a fraction of total runtime.
    init_fraction: float = 0.05

    # ------------------------------------------------------------------
    # construction and derived properties
    # ------------------------------------------------------------------

    def __init__(self) -> None:
        if not self.objects:
            raise WorkloadError(f"{self.name}: empty inventory")
        total = sum(o.miss_weight for o in self.objects)
        if total <= 0:
            raise WorkloadError(f"{self.name}: no object has miss weight")
        if abs(sum(p.duration_fraction for p in self.phases) - 1.0) > 1e-6:
            raise WorkloadError(f"{self.name}: phase fractions must sum to 1")
        names = [o.name for o in self.objects]
        if len(set(names)) != len(names):
            raise WorkloadError(f"{self.name}: duplicate object names")
        phase_names = {p.function for p in self.phases}
        for o in self.objects:
            if o.churn and o.churn_phase not in phase_names:
                raise WorkloadError(
                    f"{self.name}: churn phase {o.churn_phase!r} of "
                    f"{o.name!r} is not a declared phase"
                )

    @property
    def module_name(self) -> str:
        return self.name

    @property
    def source_file(self) -> str:
        ext = {"C": "c", "C++": "cpp", "Fortran": "f90"}.get(self.language, "c")
        return f"{self.name}.{ext}"

    def scaled(self, nbytes: int) -> int:
        """Real bytes -> simulated bytes (>= 1 page per instance)."""
        return max(4096, int(nbytes * self.scale))

    @property
    def footprint_real(self) -> int:
        """Peak concurrent heap+static footprint per rank, real bytes."""
        persistent = sum(o.size * o.count for o in self.objects if not o.churn)
        churn_by_phase: dict[str, int] = {}
        for o in self.objects:
            if o.churn:
                churn_by_phase[o.churn_phase] = (
                    churn_by_phase.get(o.churn_phase, 0) + o.size
                )
        churn_peak = max(churn_by_phase.values(), default=0)
        return persistent + churn_peak

    @property
    def hot_footprint_real(self) -> int:
        """Bytes of data actually touched per iteration (real scale).

        The cache-mode model preserves the ratio between this and the
        per-rank MCDRAM share when it scales its direct-mapped cache.
        """
        return sum(
            int(o.size * o.pattern.hot_fraction) * o.count
            for o in self.objects
            if o.miss_weight > 0
        )

    @property
    def mcdram_share_real(self) -> int:
        """Per-rank slice of the 16 GiB MCDRAM (real bytes)."""
        return (16 * GIB) // self.geometry.ranks

    def site_key(self, spec: ObjectSpec) -> tuple[tuple[str, str, int], ...]:
        """Translated call-stack key of a dynamic site (leaf first).

        Includes the implicit ``main`` root frame the timeline pushes.
        """
        if spec.static:
            raise WorkloadError(f"{spec.name} is static; it has no call-stack")
        frames = [
            (fn, self.source_file, ln) for fn, ln in reversed(spec.callstack)
        ]
        frames.append(("main", self.source_file, 1))
        return tuple(frames)

    def key_to_site_name(self) -> dict[tuple, str]:
        """Map translated call-stack key -> site name."""
        return {
            self.site_key(o): o.name for o in self.objects if not o.static
        }

    def find_object(self, name: str) -> ObjectSpec:
        for o in self.objects:
            if o.name == name:
                return o
        raise WorkloadError(f"{self.name}: no object named {name!r}")

    # ------------------------------------------------------------------
    # program image
    # ------------------------------------------------------------------

    def build_modules(self) -> list[ModuleImage]:
        """Synthesize the binary image from the inventory call-stacks."""
        max_line: dict[str, int] = {"main": 2}
        for spec in self.objects:
            if spec.static:
                continue
            for fn, line in spec.callstack:
                max_line[fn] = max(max_line.get(fn, 1), line)
        for phase in self.phases:
            max_line.setdefault(phase.function, 2)
        functions = []
        offset = 0
        for fn in sorted(max_line):
            size = max_line[fn] + 16
            functions.append(
                FunctionSymbol(
                    name=fn, offset=offset, size=size, file=self.source_file
                )
            )
            offset += size + 16
        return [
            ModuleImage(
                name=self.module_name, size=offset + 64, functions=functions
            )
        ]

    def create_process(
        self,
        seed: int = 0,
        rank: int = 0,
        hbw_capacity: int | None = None,
    ) -> SimProcess:
        """A fresh process with statics registered and arenas sized.

        ``hbw_capacity`` is the *scaled* physical MCDRAM available to
        this rank; defaults to the scaled per-rank MCDRAM share.
        """
        if hbw_capacity is None:
            hbw_capacity = self.scaled(self.mcdram_share_real)
        heap_size = max(64 * MIB, 8 * self.scaled(self.footprint_real))
        static_need = sum(
            self.scaled(o.size) for o in self.objects if o.static
        )
        process = SimProcess(
            modules=self.build_modules(),
            rank=rank,
            seed=seed,
            static_segment_size=max(64 * MIB, 2 * static_need),
            heap_size=heap_size,
            hbw_size=max(hbw_capacity * 2, 16 * MIB),
            hbw_capacity=hbw_capacity,
        )
        # memkind's 1-2 MiB slow path is keyed on *real* sizes.
        process.memkind.penalty_size_multiplier = 1.0 / self.scale
        for spec in self.objects:
            if spec.static:
                process.register_static(spec.name, self.scaled(spec.size))
        return process

    # ------------------------------------------------------------------
    # allocation timeline
    # ------------------------------------------------------------------

    def _alloc_instance(self, process: SimProcess, spec: ObjectSpec) -> int:
        """Perform one allocation with the spec's call context."""
        from contextlib import ExitStack

        with ExitStack() as stack:
            stack.enter_context(process.in_function(self.module_name, "main", 1))
            for fn, line in spec.callstack:
                stack.enter_context(
                    process.in_function(self.module_name, fn, line)
                )
            return process.malloc(self.scaled(spec.size))

    def _persistent_specs(self) -> list[ObjectSpec]:
        return [o for o in self.objects if not o.static and not o.churn]

    def _churn_specs(self, phase_function: str) -> list[ObjectSpec]:
        return [o for o in self.objects if o.churn_phase == phase_function]

    def _static_specs(self) -> list[ObjectSpec]:
        return [o for o in self.objects if o.static]

    def run_timeline(
        self,
        process: SimProcess,
        on_window: Callable[[int, PhaseSpec, float, float, dict[str, int]], None]
        | None = None,
        on_phase: Callable[[str, float], None] | None = None,
    ) -> dict[str, list[str]]:
        """Drive the allocation/phase timeline of one run.

        ``on_window(iteration, phase, t0, t1, live)`` fires once per
        (iteration, phase) with the wall-time window and the live
        dynamic addresses (site name -> base address).
        ``on_phase(function, time)`` fires at each phase entry.
        Returns the per-site list of serving allocator names.
        """
        cal = self.calibration
        t_init_end = cal.ddr_time * self.init_fraction
        iter_span = (cal.ddr_time - t_init_end) / self.n_iterations

        placements: dict[str, list[str]] = {o.name: [] for o in self.objects}
        live: dict[str, int] = {}

        # Statics are "placed" at load time by definition.
        for spec in self._static_specs():
            placements[spec.name].append("static")

        # Init-time allocations, in inventory order (this order is what
        # numactl's FCFS policy consumes).
        init_specs = self._persistent_specs()
        for j, spec in enumerate(init_specs):
            process.advance(
                max(
                    0.0,
                    t_init_end * (j + 1) / (len(init_specs) + 1)
                    - process.clock,
                )
            )
            address = 0
            for _ in range(spec.count):
                address = self._alloc_instance(process, spec)
                placements[spec.name].append(
                    self._serving_allocator(process, address)
                )
            live[spec.name] = address  # last instance's base

        process.advance(max(0.0, t_init_end - process.clock))

        for it in range(self.n_iterations):
            t0 = t_init_end + it * iter_span
            process.advance(max(0.0, t0 - process.clock))
            t_cursor = t0
            for phase in self.phases:
                span = phase.duration_fraction * iter_span
                t_p0, t_p1 = t_cursor, t_cursor + span
                churn_here: list[tuple[str, int]] = []
                for spec in self._churn_specs(phase.function):
                    address = self._alloc_instance(process, spec)
                    placements[spec.name].append(
                        self._serving_allocator(process, address)
                    )
                    churn_here.append((spec.name, address))
                    live[spec.name] = address
                if on_phase is not None:
                    on_phase(phase.function, t_p0)
                if on_window is not None:
                    on_window(it, phase, t_p0, t_p1, dict(live))
                process.advance(max(0.0, t_p1 - 1e-6 * span - process.clock))
                for name, address in churn_here:
                    process.free(address)
                    live.pop(name, None)
                process.advance(max(0.0, t_p1 - process.clock))
                t_cursor = t_p1
        process.advance(max(0.0, cal.ddr_time - process.clock))
        return placements

    @staticmethod
    def _serving_allocator(process: SimProcess, address: int) -> str:
        for allocator in (process.memkind, process.posix):
            if allocator.live.lookup_base(address) is not None:
                return allocator.name
        raise WorkloadError(f"address {address:#x} not live after malloc")

    # ------------------------------------------------------------------
    # miss-stream generation
    # ------------------------------------------------------------------

    def _touch_offsets(
        self, spec: ObjectSpec, n: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Per-iteration touch set (byte offsets into the object).

        Fixed across iterations, which is what gives iterative
        applications their cross-iteration reuse.
        """
        span = max(
            CACHE_LINE,
            int(self.scaled(spec.size) * spec.pattern.hot_fraction),
        )
        if spec.pattern.kind == "sequential":
            step = max(
                CACHE_LINE, (span // max(n, 1)) & ~(CACHE_LINE - 1)
            )
            offsets = (np.arange(n, dtype=np.int64) * step) % span
        else:
            lines = max(1, span // CACHE_LINE)
            offsets = (
                rng.integers(0, lines, size=n, dtype=np.int64) * CACHE_LINE
            )
        return offsets

    def _misses_per_iteration(self) -> dict[str, int]:
        """Misses each object receives per iteration of the stream."""
        total_weight = sum(o.miss_weight for o in self.objects)
        heap_misses = self.stream_misses * (1.0 - self.stack_miss_fraction)
        out: dict[str, int] = {}
        for spec in self.objects:
            share = spec.miss_weight / total_weight
            out[spec.name] = max(
                0, int(round(heap_misses * share / self.n_iterations))
            )
        return out

    def _stack_misses_per_iteration(self) -> int:
        return int(
            round(
                self.stream_misses
                * self.stack_miss_fraction
                / self.n_iterations
            )
        )

    def _touching_phase_count(self, spec: ObjectSpec) -> int:
        return sum(1 for p in self.phases if spec.touches(p.function))

    def _stack_share_of_phase(self, phase: PhaseSpec) -> float:
        """Fraction of each iteration's stack misses in this phase."""
        eligible = [
            p
            for p in self.phases
            if not self.stack_phases or p.function in self.stack_phases
        ]
        if phase not in eligible:
            return 0.0
        total = sum(p.duration_fraction for p in eligible)
        return phase.duration_fraction / total

    def window_live(self, t0: float, live: dict[str, int]) -> dict[str, int]:
        """The live dynamic sites (name -> base address) the window
        starting at ``t0`` generates misses from. Every live site by
        default; a workload with idle stretches drops sites here."""
        return live

    def _window_plan(
        self,
        phase: PhaseSpec,
        names: tuple[str, ...],
        touch_sets: dict[str, np.ndarray],
        stack_touch: np.ndarray,
    ) -> _WindowPlan:
        """The plan of a window of ``phase`` in which the sites
        ``names`` (inventory order) have a base address."""
        per_iter = self._misses_per_iteration()
        counts: dict[str, int] = {}
        offsets: list[np.ndarray] = []
        latencies: list[int] = []
        for name in names:
            spec = self.find_object(name)
            n = per_iter[name] // max(self._touching_phase_count(spec), 1)
            offsets.append(touch_sets[name][:n])
            latencies.append(spec.pattern.latency_cycles)
            if n:
                counts[name] = n
        n_stack = int(
            round(
                self._stack_misses_per_iteration()
                * self._stack_share_of_phase(phase)
            )
        )
        if n_stack > 0:
            counts["<stack>"] = n_stack
            offsets.append(stack_touch[:n_stack])
            latencies.append(STACK_LATENCY_CYCLES)
        sizes = [o.size for o in offsets]
        order = _round_robin_order(sizes)
        segments = np.repeat(np.arange(len(sizes)), sizes)[order]
        plan = _WindowPlan(
            segments=segments,
            offsets=np.concatenate(offsets or [np.zeros(0, np.int64)])[order],
            latencies=np.asarray(latencies, dtype=np.int64)[segments],
            ramp=np.arange(order.size) + 0.5,
            counts=counts,
        )
        for column in (plan.segments, plan.offsets, plan.latencies, plan.ramp):
            column.flags.writeable = False
        return plan

    def generate_window_stream(
        self,
        phase: PhaseSpec,
        t0: float,
        t1: float,
        live: dict[str, int],
        statics: dict[str, int],
        stack_base: int,
        touch_sets: dict[str, np.ndarray],
        stack_touch: np.ndarray,
        plans: dict[tuple, _WindowPlan],
    ) -> tuple[np.ndarray, np.ndarray, dict[str, int], np.ndarray]:
        """Addresses/times/latencies of one (iteration, phase) window's
        misses. Latencies model a Xeon-style PMU; the tracer decides
        whether to record them.

        ``plans`` memoises one :class:`_WindowPlan` per window shape;
        pass the same dict for every window of one run (the plans bake
        in that run's touch sets). Only the base addresses vary between
        windows of one shape, so a window costs one gather. The
        latency column returned is the plan's, read-only.
        """
        live = self.window_live(t0, live)
        names: list[str] = []
        bases: list[int] = []
        for spec in self.objects:
            if not spec.touches(phase.function):
                continue
            base = (statics if spec.static else live).get(spec.name)
            if base is not None:
                names.append(spec.name)
                bases.append(base)
        bases.append(stack_base)
        key = (phase, tuple(names))
        plan = plans.get(key)
        if plan is None:
            plan = plans[key] = self._window_plan(
                phase, key[1], touch_sets, stack_touch
            )
        # The same bits as .astype(np.uint64), without a second copy.
        addresses = (
            np.array(bases, dtype=np.int64)[plan.segments] + plan.offsets
        ).view(np.uint64)
        times = t0 + plan.ramp * (t1 - t0) / (plan.ramp.size + 1)
        return addresses, times, dict(plan.counts), plan.latencies

    # ------------------------------------------------------------------
    # profiling run (framework step 1)
    # ------------------------------------------------------------------

    def run_profiling(
        self,
        seed: int = 0,
        tracer_config: TracerConfig | None = None,
    ) -> ProfilingRun:
        """Execute the instrumented run of one representative rank."""
        process = self.create_process(seed=seed)
        tracer = Tracer(
            config=tracer_config
            or TracerConfig(sampling_period=self.sampling_period),
            application=self.name,
            rank=0,
        )
        tracer.attach(process)

        name_hash = zlib.crc32(self.name.encode())
        rng = np.random.default_rng(np.random.SeedSequence([name_hash, seed]))
        per_iter = self._misses_per_iteration()
        touch_sets = {
            spec.name: self._touch_offsets(
                spec, max(per_iter[spec.name], 1), rng
            )
            for spec in self.objects
        }
        stack_touch = (
            rng.integers(
                0,
                max(
                    1,
                    min(process.stack_region.size, 64 * 1024) // CACHE_LINE,
                ),
                size=max(1, self._stack_misses_per_iteration()),
                dtype=np.int64,
            )
            * CACHE_LINE
        )
        statics = {
            name: region.base for name, region in process.statics.items()
        }
        latency_cycles = {
            o.name: o.pattern.latency_cycles for o in self.objects
        }
        latency_cycles["<stack>"] = STACK_LATENCY_CYCLES
        plans: dict[tuple, _WindowPlan] = {}

        truth = GroundTruth()
        all_addresses: list[np.ndarray] = []
        all_times: list[np.ndarray] = []

        def on_window(
            it: int,
            phase: PhaseSpec,
            t0: float,
            t1: float,
            live: dict[str, int],
        ) -> None:
            addresses, times, counts, latencies = self.generate_window_stream(
                phase,
                t0,
                t1,
                live,
                statics,
                process.stack_region.base,
                touch_sets,
                stack_touch,
                plans,
            )
            for site, n in counts.items():
                truth.misses_by_site[site] = (
                    truth.misses_by_site.get(site, 0) + n
                )
                truth.latency_by_site[site] = (
                    truth.latency_by_site.get(site, 0.0)
                    + n * latency_cycles[site]
                )
            truth.total_misses += int(addresses.size)
            truth.windows.append(
                WindowTruth(t0=t0, t1=t1, misses_by_site=counts)
            )
            all_addresses.append(addresses)
            all_times.append(times)
            tracer.record_misses(addresses, times, latencies)

        def on_phase(function: str, time: float) -> None:
            tracer.record_phase(function, time)

        self.run_timeline(process, on_window=on_window, on_phase=on_phase)

        truth.addresses = (
            np.concatenate(all_addresses)
            if all_addresses
            else np.zeros(0, np.uint64)
        )
        truth.times = (
            np.concatenate(all_times) if all_times else np.zeros(0, float)
        )
        # Release the per-window miss chunks before the trace columns
        # are allocated, so the two never coexist at peak.
        all_addresses.clear()
        all_times.clear()
        return ProfilingRun(
            trace=tracer.columnar_trace(),
            ground_truth=truth,
            tracer=tracer,
            process=process,
            sites={o.name: o for o in self.objects},
        )

    # ------------------------------------------------------------------
    # placed re-execution (framework step 4, and baselines)
    # ------------------------------------------------------------------

    def replay_with_hook(
        self,
        hook_factory: Callable[[SimProcess], object] | None,
        seed: int = 1,
        hbw_capacity_real: int | None = None,
    ) -> ReplayResult:
        """Re-run the allocation timeline under an interposition hook.

        ``hook_factory`` builds the hook for the fresh process (None
        replays the plain DDR run). ``hbw_capacity_real`` overrides the
        per-rank physical MCDRAM share (real bytes).
        """
        capacity = (
            self.scaled(hbw_capacity_real)
            if hbw_capacity_real is not None
            else None
        )
        process = self.create_process(seed=seed, hbw_capacity=capacity)
        hook = hook_factory(process) if hook_factory is not None else None
        if hook is not None:
            process.install_malloc_hook(hook)

        placements = self.run_timeline(process)

        hwm_scaled = getattr(hook, "hbw_hwm_bytes", 0)
        overhead = getattr(hook, "overhead_seconds", 0.0)
        fractions = getattr(hook, "promoted_fractions_by_key", None)
        promoted_fractions: dict[str, list[float]] = {}
        if fractions:
            name_by_key = self.key_to_site_name()
            for key, fracs in fractions.items():
                site = name_by_key.get(key)
                if site is not None:
                    promoted_fractions[site] = list(fracs)
        return ReplayResult(
            placements=placements,
            hbw_hwm_bytes=int(hwm_scaled / self.scale),
            alloc_overhead_seconds=float(overhead)
            * self.alloc_count_multiplier,
            hook=hook,
            promoted_fractions=promoted_fractions,
        )
