"""FaultInjector: every decision is a pure function of (seed, identity)."""

import shutil
import zlib

import numpy as np
import pytest

from repro.errors import (
    InjectedFaultError,
    MigrationError,
    OutOfMemoryError,
    TraceError,
    TransientMigrationError,
)
from repro.faults.injector import (
    FATE_HANG,
    FATE_KILL,
    FATE_OK,
    MIGRATION_DETERMINISTIC,
    MIGRATION_OK,
    MIGRATION_TRANSIENT,
    WINDOW_FATES,
    WINDOW_OK,
    FaultInjector,
    _unit,
    damage_trace_file,
)
from repro.faults.plan import FaultPlan
from repro.runtime.callstack import RawCallStack
from repro.runtime.process import SimProcess
from repro.runtime.symbols import FunctionSymbol, ModuleImage
from repro.trace.columnar import (
    EVENT_COLUMNS,
    KIND_PHASE,
    KIND_SAMPLE,
    ColumnarTrace,
)
from repro.trace.events import PhaseEvent, SampleEvent
from repro.trace.tracefile import TraceFile
from repro.units import KIB, MIB


def _sample_trace(n=400, application="demo"):
    trace = TraceFile(application=application, ranks=1, sampling_period=3)
    trace.append(PhaseEvent(time=0.0, rank=0, function="loop"))
    for i in range(n):
        trace.append(
            SampleEvent(time=i * 1e-3, rank=0, address=0x1000 + 64 * i)
        )
    return trace


def _sample_columns(n=400, application="demo"):
    return ColumnarTrace.from_tracefile(_sample_trace(n, application))


def _process():
    modules = [
        ModuleImage(
            name="app",
            size=200,
            functions=[FunctionSymbol("main", 0, 64, "app.c")],
        )
    ]
    return SimProcess(modules=modules, heap_size=64 * MIB, hbw_size=16 * MIB)


def _row_degraded(trace: TraceFile, plan: FaultPlan) -> tuple[int, int]:
    """Reference: the same draws applied event by event to a row trace."""
    scope = zlib.crc32(trace.application.encode())
    kept = []
    dropped = corrupted = 0
    index = 0
    for event in trace.events:
        if not isinstance(event, SampleEvent):
            kept.append(event)
            continue
        u = _unit(plan.seed, "sample", scope, index)
        index += 1
        if u < plan.sample_drop_rate:
            dropped += 1
            continue
        if u < plan.sample_drop_rate + plan.sample_corrupt_rate:
            garbage = int(_unit(plan.seed, "corrupt", scope, index) * 2**46)
            event = SampleEvent(
                time=event.time,
                rank=event.rank,
                address=(event.address ^ 0x5A5A_5A5A_5A5A) + garbage,
                latency_cycles=event.latency_cycles,
            )
            corrupted += 1
        kept.append(event)
    trace.events = kept
    return dropped, corrupted


class TestDegradeTrace:
    def test_drop_and_corrupt_counts(self):
        trace = _sample_columns()
        plan = FaultPlan(seed=42, sample_drop_rate=0.1, sample_corrupt_rate=0.05)
        dropped, corrupted = FaultInjector(plan).degrade_trace(trace)
        assert 0 < dropped < 400
        assert 0 < corrupted < 400
        assert trace.n_samples == 400 - dropped
        # Non-sample events are never touched.
        assert np.count_nonzero(trace.kinds == KIND_PHASE) == 1

    def test_deterministic(self):
        plan = FaultPlan(seed=7, sample_drop_rate=0.2, sample_corrupt_rate=0.1)
        a, b = _sample_columns(), _sample_columns()
        counts_a = FaultInjector(plan).degrade_trace(a)
        counts_b = FaultInjector(plan).degrade_trace(b)
        assert counts_a == counts_b
        assert a.to_tracefile().events == b.to_tracefile().events

    def test_keyed_on_application_name(self):
        plan = FaultPlan(seed=7, sample_drop_rate=0.2)
        a = _sample_columns(application="alpha")
        b = _sample_columns(application="beta")
        FaultInjector(plan).degrade_trace(a)
        FaultInjector(plan).degrade_trace(b)
        assert a.to_tracefile().events != b.to_tracefile().events

    def test_clean_plan_is_a_noop(self):
        trace = _sample_columns(n=10)
        before = list(trace.to_tracefile().events)
        assert FaultInjector(FaultPlan(seed=1)).degrade_trace(trace) == (0, 0)
        assert trace.to_tracefile().events == before

    def test_corruption_perturbs_addresses(self):
        trace = _sample_columns(n=50)
        originals = trace.addresses[trace.kinds == KIND_SAMPLE].tolist()
        plan = FaultPlan(seed=3, sample_corrupt_rate=1.0)
        dropped, corrupted = FaultInjector(plan).degrade_trace(trace)
        assert (dropped, corrupted) == (0, 50)
        assert all(
            a != o
            for a, o in zip(
                trace.addresses[trace.kinds == KIND_SAMPLE].tolist(),
                originals,
            )
        )

    def test_equals_row_degradation(self, tiny_app):
        """Column degradation draws per sample in recording order, so
        it equals degrading the row-oriented export event by event."""
        trace = tiny_app.run_profiling(seed=0).trace
        rows = trace.to_tracefile()
        plan = FaultPlan(seed=5, sample_drop_rate=0.2, sample_corrupt_rate=0.1)
        counts = FaultInjector(plan).degrade_trace(trace)
        assert counts == _row_degraded(rows, plan)
        assert counts[0] > 0 and counts[1] > 0
        expected = ColumnarTrace.from_tracefile(rows)
        for name in EVENT_COLUMNS:
            column = getattr(trace, name)
            assert column.dtype == getattr(expected, name).dtype
            assert np.array_equal(column, getattr(expected, name)), name
        assert trace.to_tracefile() == rows


class TestCallstackPerturbation:
    def test_zero_offset_returns_same_object(self):
        raw = RawCallStack(addresses=(0x100, 0x200))
        assert FaultInjector(FaultPlan()).perturb_callstack(raw) is raw

    def test_constant_offset_applied(self):
        raw = RawCallStack(addresses=(0x100, 0x200))
        plan = FaultPlan(aslr_offset=4096)
        shifted = FaultInjector(plan).perturb_callstack(raw)
        assert shifted.addresses == (0x100 + 4096, 0x200 + 4096)


class TestCellFate:
    def test_clean_plan_always_ok(self):
        injector = FaultInjector(FaultPlan(seed=0))
        assert injector.cell_fate("app", ("grid", "density"), 1) == FATE_OK

    def test_certain_kill(self):
        injector = FaultInjector(FaultPlan(seed=0, cell_kill_rate=1.0))
        assert injector.cell_fate("app", ("x",), 1) == FATE_KILL

    def test_deterministic_and_attempt_sensitive(self):
        plan = FaultPlan(seed=5, cell_kill_rate=0.5, cell_hang_rate=0.2)
        a, b = FaultInjector(plan), FaultInjector(plan)
        fates = set()
        for attempt in range(1, 50):
            fate = a.cell_fate("app", ("cell",), attempt)
            assert fate == b.cell_fate("app", ("cell",), attempt)
            fates.add(fate)
        assert fates == {FATE_OK, FATE_KILL, FATE_HANG}

    def test_kill_error_names_the_attempt(self):
        injector = FaultInjector(FaultPlan(seed=0, cell_kill_rate=1.0))
        error = injector.kill_error("tinyapp", ("baseline", "ddr"), 2)
        assert isinstance(error, InjectedFaultError)
        assert "tinyapp" in str(error)
        assert "attempt 2" in str(error)


class TestMemkindInjection:
    def test_zero_rate_installs_nothing(self):
        process = _process()
        FaultInjector(FaultPlan(seed=0)).arm_memkind(process.memkind)
        assert process.memkind.fail_hook is None

    def test_certain_failure_raises_enriched_oom(self):
        process = _process()
        plan = FaultPlan(seed=0, memkind_failure_rate=1.0)
        FaultInjector(plan).arm_memkind(process.memkind, scope="t")
        with pytest.raises(OutOfMemoryError, match="injected") as excinfo:
            process.memkind.malloc(64 * KIB)
        assert excinfo.value.requested == 64 * KIB
        assert process.memkind.injected_failures == 1

    def test_failure_pattern_is_reproducible(self):
        plan = FaultPlan(seed=13, memkind_failure_rate=0.5)

        def pattern():
            process = _process()
            FaultInjector(plan).arm_memkind(process.memkind, scope="s")
            outcomes = []
            for _ in range(20):
                try:
                    process.memkind.malloc(4 * KIB)
                except OutOfMemoryError:
                    outcomes.append(False)
                else:
                    outcomes.append(True)
            return outcomes

        first = pattern()
        assert first == pattern()
        assert True in first and False in first


class TestDamageTraceFile:
    def _saved(self, tmp_path, name="run.trace", n=400):
        trace = _sample_trace(n=n)
        path = tmp_path / name
        trace.save(path)
        return trace, path

    def test_truncation_reports_lost_bytes(self, tmp_path):
        _, path = self._saved(tmp_path)
        size = path.stat().st_size
        plan = FaultPlan(seed=1, trace_truncate_fraction=0.5)
        lost = damage_trace_file(path, plan)
        assert lost == size - path.stat().st_size > 0

    def test_truncated_trace_salvages(self, tmp_path):
        trace, path = self._saved(tmp_path)
        damage_trace_file(path, FaultPlan(seed=1, trace_truncate_fraction=0.5))
        with pytest.raises(TraceError):
            TraceFile.load(path)
        clone = TraceFile.load(path, salvage=True)
        report = clone.salvage
        assert report is not None and not report.clean
        # n_records = 1 phase + 400 samples; everything is recovered or
        # accounted for as lost, never silently missing.
        assert report.recovered_records + report.lost_records == 401
        assert 0 < report.recovered_records < 401
        assert clone.events == trace.events[: len(clone.events)]

    def test_bitflips_spare_the_header(self, tmp_path):
        _, path = self._saved(tmp_path, n=60)
        header = path.read_bytes().split(b"\n", 1)[0]
        plan = FaultPlan(seed=2, trace_bitflips=4)
        assert damage_trace_file(path, plan) == 0
        assert path.read_bytes().split(b"\n", 1)[0] == header
        with pytest.raises(TraceError):
            TraceFile.load(path)
        clone = TraceFile.load(path, salvage=True)
        assert clone.salvage.damaged_lines >= 1
        assert clone.salvage.details  # per-line reasons for the log

    def test_damage_is_deterministic(self, tmp_path):
        _, path = self._saved(tmp_path, n=60)
        copy_dir = tmp_path / "copy"
        copy_dir.mkdir()
        copy = copy_dir / path.name  # same name: same bit-flip rng key
        shutil.copy(path, copy)
        plan = FaultPlan(seed=9, trace_truncate_fraction=0.8, trace_bitflips=3)
        damage_trace_file(path, plan)
        damage_trace_file(copy, plan)
        assert path.read_bytes() == copy.read_bytes()


class TestWindowFate:
    def test_clean_plan_never_degrades(self):
        injector = FaultInjector(FaultPlan(seed=1))
        assert all(
            injector.window_fate("app", i) == WINDOW_OK for i in range(64)
        )

    def test_deterministic_per_identity(self):
        plan = FaultPlan(
            seed=4,
            window_drop_rate=0.2,
            window_corrupt_rate=0.2,
            window_late_rate=0.2,
        )
        a = [FaultInjector(plan).window_fate("app", i) for i in range(64)]
        b = [FaultInjector(plan).window_fate("app", i) for i in range(64)]
        assert a == b
        assert set(a) - {WINDOW_OK} <= set(WINDOW_FATES)
        # At 60% total degradation over 64 windows every kind shows up.
        for fate in WINDOW_FATES:
            assert fate in a

    def test_application_scopes_the_draw(self):
        plan = FaultPlan(seed=4, window_drop_rate=0.5)
        injector = FaultInjector(plan)
        a = [injector.window_fate("alpha", i) for i in range(64)]
        b = [injector.window_fate("beta", i) for i in range(64)]
        assert a != b


class TestMigrationFate:
    STICKY = FaultPlan(
        seed=2, migration_failure_rate=1.0, migration_sticky_fraction=1.0
    )
    FLAKY = FaultPlan(
        seed=2, migration_failure_rate=0.6, migration_sticky_fraction=0.0
    )

    def test_clean_plan_never_fails(self):
        injector = FaultInjector(FaultPlan(seed=1))
        assert (
            injector.migration_fate("app", "s", "promote", 0, 1)
            == MIGRATION_OK
        )

    def test_sticky_failures_survive_every_attempt(self):
        """A deterministic verdict is keyed per (site, direction,
        window): retrying cannot clear it."""
        injector = FaultInjector(self.STICKY)
        for attempt in range(1, 6):
            assert (
                injector.migration_fate("app", "s", "promote", 3, attempt)
                == MIGRATION_DETERMINISTIC
            )

    def test_transient_failures_redraw_per_attempt(self):
        injector = FaultInjector(self.FLAKY)
        fates = {
            injector.migration_fate("app", "s", "promote", 3, attempt)
            for attempt in range(1, 30)
        }
        assert fates == {MIGRATION_OK, MIGRATION_TRANSIENT}

    def test_window_rescopes_a_sticky_verdict(self):
        """The same move in a different window draws fresh — pinned
        pages may unpin, so a later re-attempt can succeed."""
        plan = FaultPlan(
            seed=6, migration_failure_rate=0.5, migration_sticky_fraction=1.0
        )
        injector = FaultInjector(plan)
        fates = {
            injector.migration_fate("app", "s", "promote", w, 1)
            for w in range(32)
        }
        assert fates == {MIGRATION_OK, MIGRATION_DETERMINISTIC}

    def test_check_migration_raises_taxonomy_errors(self):
        injector = FaultInjector(self.STICKY)
        with pytest.raises(MigrationError) as err:
            injector.check_migration("app", "s", "promote", 3, 1)
        assert not isinstance(err.value, TransientMigrationError)
        assert "site=s" in str(err.value)

        flaky = FaultInjector(
            FaultPlan(
                seed=2,
                migration_failure_rate=1.0,
                migration_sticky_fraction=0.0,
            )
        )
        with pytest.raises(TransientMigrationError):
            flaky.check_migration("app", "s", "promote", 3, 1)

    def test_check_migration_silent_on_ok(self):
        injector = FaultInjector(FaultPlan(seed=1))
        assert (
            injector.check_migration("app", "s", "promote", 0, 1) is None
        )
