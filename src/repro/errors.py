"""Exception hierarchy and failure taxonomy for the repro package.

Every error raised by the library derives from :class:`ReproError` so
callers can catch library failures without masking programming errors.

On top of the hierarchy sits a three-way **failure taxonomy** the
sweep scheduler keys its retry/skip decisions off (instead of
string-matching tracebacks):

* ``transient`` — the attempt failed for reasons unrelated to the
  inputs (a worker died, a deadline fired, the OS hiccuped); the same
  cell may well succeed if re-executed, so it is worth retrying.
* ``deterministic`` — the computation itself failed and will fail the
  same way every time (a capacity OOM, a modelling bug); retries are
  bounded and repeated deterministic failures trip the per-application
  circuit breaker.
* ``poisoned-input`` — the *input* is bad (malformed plan, unreadable
  journal, inconsistent configuration); re-executing burns cycles for
  an identical failure, so the scheduler fails the cell immediately.

Each :class:`ReproError` subclass carries its category as a class
attribute; :func:`classify_error` extends the mapping to foreign
exceptions (OS-level faults are transient, everything else is assumed
deterministic).
"""

from __future__ import annotations

#: Failure categories of the sweep scheduler's decision taxonomy.
CATEGORY_TRANSIENT = "transient"
CATEGORY_DETERMINISTIC = "deterministic"
CATEGORY_POISONED = "poisoned-input"
CATEGORIES: tuple[str, ...] = (
    CATEGORY_TRANSIENT,
    CATEGORY_DETERMINISTIC,
    CATEGORY_POISONED,
)


class ReproError(Exception):
    """Base class for all errors raised by this package."""

    #: Failure taxonomy bucket; subclasses override where they differ.
    category = CATEGORY_DETERMINISTIC


class ConfigError(ReproError):
    """A machine/memory specification is malformed or inconsistent."""

    category = CATEGORY_POISONED


class AllocationError(ReproError):
    """A simulated allocator could not satisfy a request."""


class OutOfMemoryError(AllocationError):
    """A capacity-limited arena (e.g. MCDRAM) is exhausted.

    Carries the request context (requested size, tier name, remaining
    capacity) so fault-plan runs produce actionable diagnostics rather
    than a bare "out of memory".
    """

    def __init__(
        self,
        message: str,
        *,
        requested: int | None = None,
        tier: str | None = None,
        remaining: int | None = None,
    ) -> None:
        parts = [message]
        if requested is not None:
            parts.append(f"requested={requested}")
        if tier is not None:
            parts.append(f"tier={tier}")
        if remaining is not None:
            parts.append(f"remaining={remaining}")
        super().__init__(
            parts[0]
            if len(parts) == 1
            else f"{parts[0]} ({', '.join(parts[1:])})"
        )
        self.requested = requested
        self.tier = tier
        self.remaining = remaining


class InvalidFreeError(AllocationError):
    """``free`` of a pointer the allocator does not own.

    Carries the offending address and the tier that rejected it.
    """

    def __init__(
        self,
        message: str,
        *,
        address: int | None = None,
        tier: str | None = None,
    ) -> None:
        parts = [message]
        if address is not None:
            parts.append(f"address={address:#x}")
        if tier is not None:
            parts.append(f"tier={tier}")
        super().__init__(
            parts[0]
            if len(parts) == 1
            else f"{parts[0]} ({', '.join(parts[1:])})"
        )
        self.address = address
        self.tier = tier


class AddressSpaceError(ReproError):
    """Virtual address-space carving failed (overlap/exhaustion)."""


class SymbolError(ReproError):
    """Call-stack translation failed to resolve an address."""


class TraceError(ReproError):
    """A trace file is malformed or events arrive out of order."""


class PlaneError(ReproError):
    """A shared trace plane is missing, torn, or failed verification.

    Raised on the worker's attach path; the sweep executor reacts by
    falling back to private materialisation (re-profiling in-process),
    never by failing the cell. Transient-shaped: the plane may exist
    again on the next attempt (e.g. after a resumed sweep republishes
    it)."""

    category = CATEGORY_TRANSIENT


class AttributionError(ReproError):
    """A sample could not be processed during object attribution."""


class AdvisorError(ReproError):
    """hmem_advisor received inconsistent inputs."""


class ReportError(ReproError):
    """A placement report could not be emitted or parsed."""


class WorkloadError(ReproError):
    """A simulated application was configured inconsistently."""


class FaultPlanError(ConfigError):
    """A fault plan is malformed or names impossible rates."""


class InjectedFaultError(ReproError):
    """A failure the fault-injection harness produced on purpose.

    Injected kills model transient infrastructure faults, so the
    scheduler is expected to retry them.
    """

    category = CATEGORY_TRANSIENT


class CircuitOpenError(ReproError):
    """An application's circuit breaker is open: its cells failed
    deterministically often enough that further execution is refused."""


class JournalError(ReproError):
    """A sweep journal is unreadable, inconsistent, or belongs to a
    different sweep than the one being resumed."""

    category = CATEGORY_POISONED


class MigrationError(ReproError):
    """A tier-to-tier page migration failed and will keep failing
    (pinned pages, a poisoned destination range). The online daemon
    rolls the affected site back to its prior tier instead of
    retrying.

    Carries the migration identity (site, direction, decision window)
    so journals and diagnostics can name the exact move that failed.
    """

    def __init__(
        self,
        message: str,
        *,
        site: str | None = None,
        direction: str | None = None,
        window: int | None = None,
    ) -> None:
        parts = [message]
        if site is not None:
            parts.append(f"site={site}")
        if direction is not None:
            parts.append(f"direction={direction}")
        if window is not None:
            parts.append(f"window={window}")
        super().__init__(
            parts[0]
            if len(parts) == 1
            else f"{parts[0]} ({', '.join(parts[1:])})"
        )
        self.site = site
        self.direction = direction
        self.window = window


class TransientMigrationError(MigrationError):
    """A migration attempt failed for reasons unrelated to the pages
    being moved (bandwidth pressure, a busy migration engine); the
    same move may well succeed if re-attempted, so the daemon retries
    it with backoff under the per-run migration error budget."""

    category = CATEGORY_TRANSIENT


class CheckpointError(ReproError):
    """A resume log (online or cluster) is unreadable or malformed,
    belongs to a different session than the one being resumed, or
    does not replay."""

    category = CATEGORY_POISONED


def classify_error(exc: BaseException) -> str:
    """Map an exception to its failure-taxonomy category.

    Library errors carry their category; foreign exceptions fall back
    on a conservative mapping — OS-level faults (broken pipes, dead
    connections, timeouts) are transient, anything else is assumed
    deterministic so it is neither retried forever nor skipped unseen.
    """
    category = getattr(exc, "category", None)
    if category in CATEGORIES:
        return category
    if isinstance(
        exc,
        (ConnectionError, EOFError, InterruptedError, TimeoutError, OSError),
    ):
        return CATEGORY_TRANSIENT
    return CATEGORY_DETERMINISTIC
