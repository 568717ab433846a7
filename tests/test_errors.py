"""Exception hierarchy: library failures are catchable as one family."""

import pytest

from repro import errors


class TestHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            errors.ConfigError,
            errors.AllocationError,
            errors.OutOfMemoryError,
            errors.InvalidFreeError,
            errors.AddressSpaceError,
            errors.SymbolError,
            errors.TraceError,
            errors.AttributionError,
            errors.AdvisorError,
            errors.ReportError,
            errors.WorkloadError,
        ],
    )
    def test_derives_from_repro_error(self, exc):
        assert issubclass(exc, errors.ReproError)
        with pytest.raises(errors.ReproError):
            raise exc("boom")

    def test_oom_is_allocation_error(self):
        assert issubclass(errors.OutOfMemoryError, errors.AllocationError)

    def test_invalid_free_is_allocation_error(self):
        assert issubclass(errors.InvalidFreeError, errors.AllocationError)

    def test_library_failures_catchable_at_the_top(self):
        """A caller wrapping the pipeline can catch everything the
        library raises without masking programming errors."""
        from repro.advisor.strategies import get_strategy

        with pytest.raises(errors.ReproError):
            get_strategy("definitely-not-a-strategy")


class TestFailureTaxonomy:
    def test_every_category_is_named(self):
        assert errors.CATEGORY_TRANSIENT in errors.CATEGORIES
        assert errors.CATEGORY_DETERMINISTIC in errors.CATEGORIES
        assert errors.CATEGORY_POISONED in errors.CATEGORIES

    @pytest.mark.parametrize(
        ("exc", "category"),
        [
            (errors.InjectedFaultError("x"), errors.CATEGORY_TRANSIENT),
            (errors.PlaneError("x"), errors.CATEGORY_TRANSIENT),
            (errors.TransientMigrationError("x"), errors.CATEGORY_TRANSIENT),
            (errors.OutOfMemoryError("x"), errors.CATEGORY_DETERMINISTIC),
            (errors.MigrationError("x"), errors.CATEGORY_DETERMINISTIC),
            (errors.ConfigError("x"), errors.CATEGORY_POISONED),
            (errors.FaultPlanError("x"), errors.CATEGORY_POISONED),
            (errors.JournalError("x"), errors.CATEGORY_POISONED),
        ],
    )
    def test_library_errors_carry_their_category(self, exc, category):
        assert exc.category == category
        assert errors.classify_error(exc) == category

    @pytest.mark.parametrize(
        "exc",
        [
            ConnectionResetError("peer gone"),
            BrokenPipeError("pipe"),
            EOFError(),
            TimeoutError(),
            OSError(5, "I/O error"),
        ],
    )
    def test_os_level_faults_are_transient(self, exc):
        assert errors.classify_error(exc) == errors.CATEGORY_TRANSIENT

    def test_unknown_exceptions_default_to_deterministic(self):
        assert (
            errors.classify_error(RuntimeError("model bug"))
            == errors.CATEGORY_DETERMINISTIC
        )
        assert (
            errors.classify_error(ZeroDivisionError())
            == errors.CATEGORY_DETERMINISTIC
        )

    def test_bogus_category_attribute_ignored(self):
        class Weird(Exception):
            category = "not-a-real-category"

        assert (
            errors.classify_error(Weird())
            == errors.CATEGORY_DETERMINISTIC
        )
