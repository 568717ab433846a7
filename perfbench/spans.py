"""In-memory span recorder and the instrumentation that feeds it.

The benchmark's traced run wraps calls into the program's public
functions from here, without editing the program: each wrapper opens a
span (name, start, end, parent) on entry and closes it on exit. Spans
stay in memory and are written out once, when the run ends.

Self time is computed as spans close: a span's duration minus the
durations of its direct children. Sums are kept per operation, so the
per-layer figures the benchmark prints are seconds (or calls) per
operation.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict

# Wrapped entry points: (module, "Class.attr" or "function", layer).
# A layer name is a `repro` module path plus the kind of work; several
# entry points may feed one layer.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("repro.apps.base", "SimApplication.run_profiling", "apps.profile"),
    ("repro.apps.base", "SimApplication.replay_with_hook", "placement.replay"),
    ("repro.pebs.sampler", "PebsSampler.sample_chunk_arrays", "pebs.sample"),
    ("repro.trace.tracer", "Tracer.record_misses", "trace.record"),
    ("repro.trace.columnar", "ColumnarTrace.from_tracefile", "trace.to_columnar"),
    ("repro.trace.shared", "SharedTracePlane.publish", "trace.plane.publish"),
    ("repro.analysis.vectorattr", "attribute_samples_vector", "analysis.attribute"),
    ("repro.analysis.vectorattr", "IncrementalAttributor.advance_time",
     "analysis.window.advance"),
    ("repro.analysis.vectorattr", "IncrementalAttributor.advance_all",
     "analysis.window.advance"),
    ("repro.analysis.vectorattr", "IncrementalAttributor.result",
     "analysis.window.snapshot"),
    ("repro.advisor.advisor", "HmemAdvisor.advise", "advisor.advise"),
    ("repro.placement.policies", "run_cache_mode", "placement.cache_mode"),
    ("repro.machine.performance", "ExecutionModel.cost", "machine.cost"),
    ("repro.online.daemon", "OnlineDaemon.run", "online.session"),
    ("repro.online.scoring", "windowed_cost", "online.score"),
    ("repro.cluster.simulator", "ClusterSim.run", "cluster.run"),
    ("repro.cluster.node", "ExtentAllocator.alloc", "cluster.extent"),
    ("repro.cluster.node", "ExtentAllocator.free", "cluster.extent"),
    ("repro.cluster.node", "ExtentAllocator.total_free", "cluster.extent"),
    ("repro.cluster.node", "ExtentAllocator.largest_free", "cluster.extent"),
    ("repro.cluster.node", "ExtentAllocator.fragmentation", "cluster.extent"),
    ("repro.parallel.sweep", "SweepExecutor.run", "parallel.sweep"),
    ("repro.parallel.sweep", "wait", "parallel.wait"),
    ("repro.parallel.journal", "SweepJournal.create", "parallel.journal"),
    ("repro.parallel.journal", "SweepJournal.append", "parallel.journal"),
    ("repro.parallel.journal", "SweepJournal.close", "parallel.journal"),
    ("repro.parallel.result_cache", "ResultCache.get", "parallel.cache"),
    ("repro.parallel.result_cache", "ResultCache.put", "parallel.cache"),
    ("repro.pipeline.experiment", "run_cell", "pipeline"),
    ("repro.pipeline.framework", "HybridMemoryFramework.profile", "pipeline"),
    ("repro.pipeline.framework", "HybridMemoryFramework.analyze", "pipeline"),
    ("repro.pipeline.framework", "HybridMemoryFramework.advise", "pipeline"),
    ("repro.pipeline.framework", "HybridMemoryFramework.run_placed", "pipeline"),
    ("repro.pipeline.framework", "HybridMemoryFramework.placement_sites",
     "pipeline"),
    ("repro.pipeline.framework", "HybridMemoryFramework.run_windowed",
     "pipeline"),
)

# The batch attribution pass is built from the windowed cursor's
# advance and snapshot; inside it, those calls are attribution work,
# not daemon windows, so they get no span of their own.
FOLDED_UNDER = {
    "analysis.window.advance": "analysis.attribute",
    "analysis.window.snapshot": "analysis.attribute",
}


class SpanRecorder:
    """Spans of one process, kept in memory until :meth:`dump`."""

    def __init__(self) -> None:
        # True only while a timed operation runs, so set-up, checks
        # and forked workers record nothing.
        self.recording = False
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        # Closed spans, children first:
        # (span id, parent span id or -1, name id, start, end, op).
        self.spans: list[tuple[int, int, int, float, float, int]] = []
        self._opened = 0
        # Open spans: [span id, name id, start, child seconds].
        self._stack: list[list] = []
        self._active: dict[str, int] = defaultdict(int)
        self.op = -1
        self._op_start = 0.0
        self._op_top = 0.0
        self.op_seconds: list[float] = []
        self.op_covered: list[float] = []
        # Per-layer totals over the timed operations.
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._window_starts: list[float] = []
        # Seconds per online-daemon window decision.
        self.decisions: list[float] = []

    def name_id(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- operations -----------------------------------------------------

    def begin_op(self) -> None:
        self.op += 1
        self._op_top = 0.0
        self.recording = True
        self._op_start = time.perf_counter()

    def end_op(self) -> None:
        self.op_seconds.append(time.perf_counter() - self._op_start)
        self.recording = False
        self.op_covered.append(self._op_top)

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    # -- spans ----------------------------------------------------------

    def wrap(self, fn, layer: str, on_result=None):
        """``fn`` wrapped in a span named ``layer``."""
        recorder = self
        nid = self.name_id(layer)
        folded_under = FOLDED_UNDER.get(layer)
        marks_window = layer == "analysis.window.advance"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not recorder.recording or (
                folded_under is not None and recorder._active[folded_under]
            ):
                return fn(*args, **kwargs)
            stack = recorder._stack
            frame = [recorder._opened, nid, time.perf_counter(), 0.0]
            recorder._opened += 1
            stack.append(frame)
            if marks_window:
                recorder._window_starts.append(frame[2])
            recorder._active[layer] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                recorder._active[layer] -= 1
                stack.pop()
                recorder._close(frame, end, layer)
            if on_result is not None:
                on_result(recorder, result)
            return result

        return traced

    def _close(self, frame: list, end: float, layer: str) -> None:
        sid, nid, start, child = frame
        duration = end - start
        stack = self._stack
        if stack:
            stack[-1][3] += duration
            parent = stack[-1][0]
        else:
            self._op_top += duration
            parent = -1
        self.spans.append((sid, parent, nid, start, end, self.op))
        self.self_s[layer] += duration - child
        self.calls[layer] += 1
        if layer == "online.session":
            # One daemon decision spans from one window's cursor advance
            # to the next (advance, snapshot, advise, diff, migrate);
            # the last window ends with the session.
            starts = self._window_starts
            bounds = starts + [end]
            self.decisions.extend(
                b - a for a, b in zip(bounds, bounds[1:])
            )
            starts.clear()

    # -- output ---------------------------------------------------------

    def dump(self, path: str, meta: dict) -> None:
        """Write every span as one JSON line after a header line that
        holds ``meta`` and the span names.

        A span line is ``[id, parent id or -1, name index, start, end,
        operation]``, times in seconds of ``time.perf_counter``.
        """
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({**meta, "names": self.names}) + "\n")
            for sid, parent, nid, start, end, op in self.spans:
                out.write(
                    f"[{sid},{parent},{nid},{start:.9f},{end:.9f},{op}]\n"
                )


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def instrument(recorder: SpanRecorder, hooks: dict | None = None):
    """Install span wrappers for every :data:`TARGETS` entry.

    ``hooks`` maps a layer to a callback ``(recorder, result)`` run
    after each call. A module-level function is replaced everywhere a
    ``repro`` module, or a dict at a module's top level (a registry),
    holds it. Returns a function that removes every wrapper again.
    """
    hooks = hooks or {}
    undo: list[tuple[object, str, object]] = []

    def patch(target, key: str, new) -> None:
        if isinstance(target, dict):
            undo.append((target, key, target[key]))
            target[key] = new
        else:
            undo.append((target, key, target.__dict__[key]))
            setattr(target, key, new)

    for module_name, path, layer in TARGETS:
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        wrap = functools.partial(
            recorder.wrap, layer=layer, on_result=hooks.get(layer)
        )
        if not owner_name:
            original = getattr(module, attr)
            wrapped = wrap(original)
            for name, mod in list(sys.modules.items()):
                if not name.startswith("repro") or mod is None:
                    continue
                namespace = vars(mod)
                registries = [v for v in namespace.values() if isinstance(v, dict)]
                for table in (namespace, *registries):
                    for key, value in list(table.items()):
                        if value is original:
                            patch(table, key, wrapped)
            continue
        owner = getattr(module, owner_name)
        for cls in (owner, *_subclasses(owner)):
            raw = cls.__dict__.get(attr)
            if isinstance(raw, classmethod):
                patch(cls, attr, classmethod(wrap(raw.__func__)))
            elif isinstance(raw, property):
                patch(cls, attr, property(wrap(raw.fget)))
            elif raw is not None:
                patch(cls, attr, wrap(raw))

    # Forked pool workers inherit the wrappers; their spans would never
    # reach the parent, so recording stops in the child.
    os.register_at_fork(
        after_in_child=lambda: setattr(recorder, "recording", False)
    )

    def remove() -> None:
        for target, key, original in reversed(undo):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)

    return remove
