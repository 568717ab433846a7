"""The online re-advising loop: window → attribute → advise → diff →
migrate — hardened to survive what real online guidance survives.

The batch pipeline runs profile → analyze → advise → re-run once.
The daemon modelled here instead watches the *same* sample stream
arrive in wall-clock windows, and at every window boundary:

1. advances a resumable :class:`IncrementalAttributor` cursor to the
   boundary and takes a cumulative snapshot;
2. forms the *window profile* — miss/latency deltas against the
   previous snapshot, with cumulative sizes (an object's size is a
   fact, not a rate);
3. re-solves placement with the ordinary :class:`HmemAdvisor` under
   the same budget and strategy the batch path would use;
4. debounces the advised set through a :class:`HysteresisFilter` and
   diffs it against the currently applied placement into promote and
   demote :class:`MigrationAction`s, which are *executed* one by one.

A decision made at the end of window *w* takes effect *during* window
``w+1`` — the daemon cannot retroactively accelerate traffic it has
already observed. Every migrated byte is accounted and later charged
to the run's memory time by the scoring layer.

Three failure classes are first-class citizens of the loop (the
robustness layer PRs 2 and 4 built for the batch path, at serving
scale):

* **Degraded sample windows.** A window's batch can be dropped,
  corrupted or late (:meth:`FaultInjector.window_fate`), and a
  decision can overrun its wall-clock budget
  (``OnlineConfig.decision_deadline_seconds``). All four take the same
  *freeze* path: the applied placement is held, the decision is
  journalled as ``WindowDecision(degraded=True, reason=...)``, and
  hysteresis streaks decay by one instead of folding garbage into the
  advisor. Late batches surface in the next window's delta; dropped
  and corrupt ones are excluded from every future delta.
* **Migration failures with rollback.** Each action is attempted
  individually; failures are classified through the
  :func:`repro.errors.classify_error` taxonomy. Transient failures
  retry with decorrelated jitter under a per-run retry budget;
  deterministic ones (and budget-exhausted transients) roll the site
  back to its prior tier — the applied placement, the hysteresis
  filter and the charged ``migrated_bytes`` stay consistent by
  construction. Repeated deterministic failures open a migration
  circuit breaker (:class:`repro.retry.CircuitBreaker`): further
  migrations freeze while advice continues.
* **Crashes.** With a checkpoint directory the daemon appends one
  fsynced, CRC-framed record per settled window to a decision log
  (:class:`repro.parallel.journal.DecisionLog`, shared with the
  cluster simulator): the window's journal line and whether the
  deadline watchdog froze it.
  ``resume=True`` re-executes the session from window 0, checks every
  logged window's regenerated line against the log
  (:class:`~repro.errors.CheckpointError` names the first that
  differs), replays logged deadline freezes instead of re-timing
  them, and appends from the first unlogged window. There is no
  state snapshot: a resume re-derives everything it needs. The
  decision journal after a SIGKILL + resume is byte-identical to an
  uninterrupted run's.

The whole loop is deterministic given (trace, budget, config, fault
plan): every fault verdict is keyed on stable identities (window
index, site, direction, attempt), never on wall-clock time. The one
wall-clock input, the decision deadline, is logged, so the emitted
decision journal is byte-stable across runs *and* across kill/resume
cycles — which is what the CI online-smoke and online-chaos jobs
assert.
"""

from __future__ import annotations

import hashlib
import json
import time
from bisect import bisect_right
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.advisor.advisor import HmemAdvisor
from repro.advisor.strategies import get_strategy
from repro.analysis.attribution import AttributionResult
from repro.analysis.profile import ProfileSet
from repro.analysis.vectorattr import IncrementalAttributor
from repro.errors import (
    CATEGORY_TRANSIENT,
    ConfigError,
    ReproError,
    classify_error,
)
from repro.faults.injector import (
    WINDOW_CORRUPT,
    WINDOW_DROP,
    WINDOW_LATE,
    WINDOW_OK,
    FaultInjector,
)
from repro.machine.performance import MIGRATION_BANDWIDTH_DEFAULT
from repro.online.migration import (
    DEMOTE,
    PROMOTE,
    HysteresisFilter,
    MigrationAction,
    MigrationFailure,
    diff_placements,
)
from repro.parallel.journal import DecisionLog
from repro.retry import CircuitBreaker, backoff_delay

#: Default window count (referenced by the mutual-exclusion check:
#: setting ``window_seconds`` together with a *non-default*
#: ``n_windows`` is a configuration contradiction, not a preference).
N_WINDOWS_DEFAULT = 16

#: Degraded-window reasons, as they appear in decision journals.
REASON_OF_FATE = {
    WINDOW_DROP: "window-drop",
    WINDOW_CORRUPT: "window-corrupt",
    WINDOW_LATE: "window-late",
}
REASON_DEADLINE = "deadline"
REASON_CIRCUIT = "circuit-open"

#: File name of the decision log inside the checkpoint directory.
DECISION_LOG_FILENAME = "online.log"


def session_key(
    application: str,
    budget_real: int,
    seed: int,
    config: dict,
    trace_fingerprint: str,
) -> str:
    """Content hash pinning one online session's identity.

    Any difference in application, budget, seed, configuration or the
    profiled trace itself yields a different key, so a decision log
    can only ever resume the exact session that wrote it.
    """
    canonical = json.dumps(
        {
            "application": application,
            "budget_real": budget_real,
            "seed": seed,
            "config": config,
            "trace": trace_fingerprint,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode()).hexdigest()[:32]


@dataclass(frozen=True, slots=True)
class OnlineConfig:
    """Knobs of the re-advising daemon."""

    #: Decision interval in simulated seconds; None derives it from
    #: ``n_windows`` over the run's calibrated wall time.
    window_seconds: float | None = None
    #: Number of equal windows when ``window_seconds`` is None.
    n_windows: int = N_WINDOWS_DEFAULT
    #: Selection strategy name (same registry as the batch advisor).
    strategy: str = "misses-0%"
    #: Consecutive windows a site must win/lose its placement before
    #: the migration is issued (1 = act immediately).
    confirm_windows: int = 1
    #: Sustained tier-to-tier migration bandwidth, bytes/second.
    migration_bandwidth: float = MIGRATION_BANDWIDTH_DEFAULT
    #: Wall-clock budget for one window's attribute→advise decision;
    #: an overrun freezes the window exactly like a degraded sample
    #: batch (None: no watchdog).
    decision_deadline_seconds: float | None = None
    #: Retries granted to one migration action's *transient* failures
    #: (deterministic failures never retry — they roll back).
    migration_retries: int = 2
    #: Base of the decorrelated-jitter delay between migration retries
    #: (0: retry immediately; keeps tests and simulations fast).
    migration_backoff_seconds: float = 0.0
    #: Per-run budget of migration retry attempts; once spent, further
    #: transient failures fail fast and roll back.
    migration_error_budget: int = 16
    #: Deterministic migration failures before the migration circuit
    #: opens — further migrations freeze, advice continues (None:
    #: breaker disabled).
    migration_circuit_threshold: int | None = 4
    #: Wall-clock pause before each window's decision work. Models the
    #: real-time arrival of the sample stream; the chaos tests use it
    #: to stretch the run so a SIGKILL lands mid-session. Never
    #: affects the decision journal.
    window_pause_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.window_seconds is not None and self.window_seconds <= 0:
            raise ConfigError("window_seconds must be positive")
        if self.n_windows < 1:
            raise ConfigError("need at least one window")
        if (
            self.window_seconds is not None
            and self.n_windows != N_WINDOWS_DEFAULT
        ):
            raise ConfigError(
                "window_seconds and n_windows both set: they are two "
                "ways to cut the same run — pick one "
                f"(got window_seconds={self.window_seconds}, "
                f"n_windows={self.n_windows})"
            )
        if self.confirm_windows < 1:
            raise ConfigError("confirm_windows must be >= 1")
        if self.migration_bandwidth <= 0:
            raise ConfigError("migration bandwidth must be positive")
        if (
            self.decision_deadline_seconds is not None
            and self.decision_deadline_seconds <= 0
        ):
            raise ConfigError("decision deadline must be positive")
        if self.migration_retries < 0:
            raise ConfigError("migration_retries must be >= 0")
        if self.migration_backoff_seconds < 0:
            raise ConfigError("migration_backoff_seconds must be >= 0")
        if self.migration_error_budget < 0:
            raise ConfigError("migration_error_budget must be >= 0")
        if (
            self.migration_circuit_threshold is not None
            and self.migration_circuit_threshold < 1
        ):
            raise ConfigError("migration_circuit_threshold must be >= 1")
        if self.window_pause_seconds < 0:
            raise ConfigError("window_pause_seconds must be >= 0")


@dataclass(frozen=True, slots=True)
class WindowDecision:
    """What the daemon decided at the end of one window."""

    index: int
    t0: float
    t1: float
    #: Sites the advisor selected from this window's profile.
    advised: tuple[str, ...]
    #: Sites actually placed fast after hysteresis *and* after any
    #: migration failures rolled back.
    applied: tuple[str, ...]
    #: Migrations that actually completed this window.
    actions: tuple[MigrationAction, ...]
    #: True when the window produced no usable decision input (lost
    #: or corrupt sample batch, blown decision deadline): the applied
    #: placement was frozen and ``reason`` says why.
    degraded: bool = False
    #: Freeze reason ("window-drop", "window-corrupt", "window-late",
    #: "deadline", "circuit-open"); None on a healthy window.
    reason: str | None = None
    #: Migrations that finally failed and were rolled back.
    failed: tuple[MigrationFailure, ...] = ()

    def journal_line(self) -> str:
        """This window's line of the decision journal."""
        moves = (
            " ".join(
                f"{a.direction}={a.site}:{a.bytes_real}" for a in self.actions
            )
            or "hold"
        )
        line = (
            f"window {self.index} [{self.t0:.6f},{self.t1:.6f}) "
            f"advised={_names(self.advised)} applied={_names(self.applied)} "
            f"{moves}"
        )
        if self.degraded:
            line += f" degraded={self.reason}"
        elif self.reason is not None:
            line += f" frozen={self.reason}"
        for failure in self.failed:
            line += (
                f" failed={failure.direction}:{failure.site}:"
                f"{failure.category}@{failure.attempts}"
            )
        return line


def _names(sites: tuple[str, ...]) -> str:
    return ",".join(sites) if sites else "-"


@dataclass
class OnlineRun:
    """Full record of one online session (decisions + placement
    schedule), ready for scoring and journaling."""

    application: str
    budget_real: int
    config: OnlineConfig
    decisions: list[WindowDecision] = field(default_factory=list)
    #: ``(t0, t1, sites-fast-during-this-window)`` — the placement in
    #: force while each window executed (decision lag included).
    schedule: list[tuple[float, float, frozenset[str]]] = field(
        default_factory=list
    )
    migrated_bytes_real: int = 0
    #: Migrations that finally failed and were rolled back.
    migration_failures: int = 0
    #: Transient retry attempts consumed from the error budget.
    migration_retries_used: int = 0
    #: True once the migration circuit breaker opened.
    circuit_open: bool = False

    @property
    def actions(self) -> list[MigrationAction]:
        return [a for d in self.decisions for a in d.actions]

    @property
    def failures(self) -> list[MigrationFailure]:
        return [f for d in self.decisions for f in d.failed]

    @property
    def degraded_windows(self) -> int:
        return sum(1 for d in self.decisions if d.degraded)

    def active_sites(self, t: float) -> frozenset[str]:
        """Sites placed fast at simulated instant ``t``."""
        if not self.schedule:
            return frozenset()
        starts = [t0 for t0, _, _ in self.schedule]
        i = max(0, bisect_right(starts, t) - 1)
        return self.schedule[i][2]

    def journal_lines(self) -> list[str]:
        """Deterministic one-line-per-window decision journal."""
        lines = [
            f"# repro-online {self.application} "
            f"budget={self.budget_real} strategy={self.config.strategy} "
            f"confirm={self.config.confirm_windows}"
        ]
        lines.extend(d.journal_line() for d in self.decisions)
        lines.append(f"migrated_bytes={self.migrated_bytes_real}")
        lines.append(
            f"migration_failures={self.migration_failures} "
            f"retries={self.migration_retries_used} "
            f"circuit={'open' if self.circuit_open else 'closed'} "
            f"degraded_windows={self.degraded_windows}"
        )
        return lines


def _window_profile(
    snapshot: AttributionResult,
    previous: AttributionResult | None,
    sampling_period: int,
    application: str,
) -> ProfileSet:
    """Profile of one window: miss/latency *deltas* over cumulative
    sizes (the advisor must still see every object that exists, at
    its true size, even if it went cold this window)."""
    if previous is None:
        return ProfileSet.from_attribution(
            snapshot, sampling_period=sampling_period, application=application
        )
    delta = AttributionResult(
        misses={
            key: count - previous.misses.get(key, 0)
            for key, count in snapshot.misses.items()
        },
        max_size=dict(snapshot.max_size),
        total_allocated=dict(snapshot.total_allocated),
        n_allocs=dict(snapshot.n_allocs),
        latency_sum={
            key: total - previous.latency_sum.get(key, 0)
            for key, total in snapshot.latency_sum.items()
        },
        unresolved_samples=snapshot.unresolved_samples
        - previous.unresolved_samples,
        stack_samples=snapshot.stack_samples - previous.stack_samples,
        total_samples=snapshot.total_samples - previous.total_samples,
    )
    return ProfileSet.from_attribution(
        delta, sampling_period=sampling_period, application=application
    )


class OnlineDaemon:
    """One online session: the hardened serving loop plus its state.

    ``framework`` is a
    :class:`~repro.pipeline.framework.HybridMemoryFramework`; its
    cached profiling run provides the sample stream (so online and
    batch modes see bit-identical traces) and its ``fault_plan`` — if
    it names streaming fault kinds — drives the degradation schedule.
    """

    def __init__(
        self,
        framework,
        budget_real: int,
        config: OnlineConfig | None = None,
        *,
        checkpoint_dir: str | Path | None = None,
        resume: bool = False,
        clock=time.monotonic,
    ) -> None:
        self.framework = framework
        self.budget_real = budget_real
        self.config = config or OnlineConfig()
        self.checkpoint_dir = (
            Path(checkpoint_dir) if checkpoint_dir is not None else None
        )
        if resume and self.checkpoint_dir is None:
            raise ConfigError(
                "--resume needs --checkpoint-dir: there is no decision "
                "log to resume from without one"
            )
        self.resume = resume
        self._clock = clock
        self._log: DecisionLog | None = None
        plan = framework.fault_plan
        self._injector = (
            FaultInjector(plan)
            if plan is not None and plan.degrades_online
            else None
        )
        self._fault_seed = plan.seed if plan is not None else framework.seed

    # -- setup ----------------------------------------------------------

    def _boundaries(self, horizon: float) -> list[tuple[float, float]]:
        config = self.config
        span = (
            config.window_seconds
            if config.window_seconds is not None
            else horizon / config.n_windows
        )
        boundaries: list[tuple[float, float]] = []
        t = 0.0
        while t < horizon:
            boundaries.append((t, min(t + span, horizon)))
            t += span
        return boundaries

    # -- migration execution --------------------------------------------

    def _retry_delay(
        self, attempt_done: int, site: str, direction: str, window: int
    ) -> float:
        """Decorrelated-jitter delay before the next migration attempt
        (the sweep's backoff, keyed per action)."""
        return backoff_delay(
            self.config.migration_backoff_seconds, attempt_done,
            self._fault_seed, "migration-backoff", site, direction, window,
        )

    def _execute_migration(
        self, site: str, direction: str, window: int
    ) -> MigrationFailure | None:
        """Attempt one migration; None on success, the failure record
        (site rolled back by the caller) when it finally fails."""
        run = self.run_record
        application = run.application
        attempt = 0
        while True:
            attempt += 1
            try:
                if self._injector is not None:
                    self._injector.check_migration(
                        application, site, direction, window, attempt
                    )
                return None
            except ReproError as exc:
                category = classify_error(exc)
                if (
                    category == CATEGORY_TRANSIENT
                    and attempt <= self.config.migration_retries
                    and self._retry_budget_left > 0
                ):
                    self._retry_budget_left -= 1
                    run.migration_retries_used += 1
                    delay = self._retry_delay(
                        attempt, site, direction, window
                    )
                    if delay > 0:
                        time.sleep(delay)
                    continue
                return MigrationFailure(
                    site=site,
                    direction=direction,
                    window=window,
                    attempts=attempt,
                    category=category,
                )

    def _apply_placement(
        self, advised: frozenset[str], index: int
    ) -> tuple[
        frozenset[str],
        tuple[MigrationAction, ...],
        tuple[MigrationFailure, ...],
    ]:
        """Debounce, diff and *execute* one window's migrations.

        Returns ``(new_active, completed_actions, failures)``. A
        failed action leaves its site in the prior tier, resyncs the
        hysteresis filter (:meth:`HysteresisFilter.rollback`) and
        charges nothing — the applied placement and
        ``migrated_bytes_real`` cannot disagree.
        """
        run = self.run_record
        app = self.framework.app
        target = self.hysteresis.update(advised)
        promotions, demotions = diff_placements(self.active, target)
        completed: list[MigrationAction] = []
        failures: list[MigrationFailure] = []
        new_active = set(self.active)
        for direction, sites in ((PROMOTE, promotions), (DEMOTE, demotions)):
            for site in sites:
                failure = self._execute_migration(site, direction, index)
                if failure is None:
                    size = app.find_object(site).size
                    completed.append(
                        MigrationAction(
                            site=site,
                            direction=direction,
                            bytes_real=size,
                            window=index,
                        )
                    )
                    if direction == PROMOTE:
                        new_active.add(site)
                    else:
                        new_active.discard(site)
                    run.migrated_bytes_real += size
                else:
                    failures.append(failure)
                    run.migration_failures += 1
                    self.hysteresis.rollback(site)
                    self._breaker.record_failure(
                        run.application, failure.category
                    )
        if self._breaker.is_open(run.application):
            run.circuit_open = True
        return frozenset(new_active), tuple(completed), tuple(failures)

    # -- the loop --------------------------------------------------------

    def run(self) -> OnlineRun:
        framework = self.framework
        config = self.config
        app = framework.app
        machine = framework.machine
        profiling = framework.profile()
        strategy = get_strategy(config.strategy)
        fast_tier = machine.fast_tier.name
        site_of = dict(app.key_to_site_name())
        boundaries = self._boundaries(app.calibration.ddr_time)

        self.attributor = IncrementalAttributor(profiling.trace)
        self.hysteresis = HysteresisFilter(config.confirm_windows)
        self.active: frozenset[str] = frozenset()
        self.run_record = OnlineRun(
            application=app.name,
            budget_real=self.budget_real,
            config=config,
        )
        self._breaker = CircuitBreaker(config.migration_circuit_threshold)
        self._retry_budget_left = config.migration_error_budget
        previous_snapshot: AttributionResult | None = None
        # Wall-clock-only knobs (pauses, retry sleeps) never touch the
        # decision stream, so they must not pin session identity — a
        # run stretched for chaos testing resumes without them.
        config_identity = {
            key: value
            for key, value in asdict(config).items()
            if key not in ("window_pause_seconds",
                           "migration_backoff_seconds")
        }
        session = session_key(
            app.name,
            self.budget_real,
            framework.seed,
            config_identity,
            self.attributor.fingerprint(),
        )

        advisor = HmemAdvisor(framework.memory_spec(self.budget_real))
        run = self.run_record
        last = len(boundaries) - 1
        try:
            if self.checkpoint_dir is not None:
                self._log = DecisionLog.open(
                    self.checkpoint_dir,
                    DECISION_LOG_FILENAME,
                    session,
                    resume=self.resume,
                    owner="online session",
                    noun="window",
                    fields=(("line", str), ("deadline", bool)),
                )
            logged = self._log.logged if self._log is not None else []
            for index, (t0, t1) in enumerate(boundaries):
                replaying = index < len(logged)
                run.schedule.append((t0, t1, self.active))
                if config.window_pause_seconds > 0 and not replaying:
                    time.sleep(config.window_pause_seconds)
                started = self._clock()
                if index == last:
                    self.attributor.advance_all()  # samples at exactly t=end
                else:
                    self.attributor.advance_time(t1)
                snapshot = self.attributor.result()

                fate = (
                    self._injector.window_fate(app.name, index)
                    if self._injector is not None
                    else WINDOW_OK
                )
                if fate != WINDOW_OK:
                    # Unusable sample batch: freeze the placement, decay
                    # streaks, journal the reason. Late samples stay
                    # pending (the next delta spans both windows);
                    # dropped and corrupt batches are excluded from
                    # every delta.
                    if fate != WINDOW_LATE:
                        previous_snapshot = snapshot
                    decision = self._freeze(
                        index, t0, t1, REASON_OF_FATE[fate]
                    )
                else:
                    profiles = _window_profile(
                        snapshot,
                        previous_snapshot,
                        framework.tracer_config.sampling_period,
                        app.name,
                    )
                    report = advisor.advise(profiles, strategy)
                    advised = frozenset(
                        site_of[identity]
                        for identity in report.selected_keys(fast_tier)
                        if identity in site_of
                    )
                    previous_snapshot = snapshot
                    if replaying:
                        # The watchdog is an input: a logged window
                        # froze for the deadline iff the log says so.
                        timed_out = logged[index]["deadline"]
                    else:
                        timed_out = (
                            config.decision_deadline_seconds is not None
                            and self._clock() - started
                            > config.decision_deadline_seconds
                        )
                    if timed_out:
                        # Watchdog: the decision took too long to still
                        # be actionable — treat it exactly like a lost
                        # window.
                        decision = self._freeze(
                            index, t0, t1, REASON_DEADLINE
                        )
                    elif self._breaker.is_open(app.name):
                        # Migration circuit open: advice continues (and
                        # is journalled), movement does not.
                        decision = WindowDecision(
                            index=index,
                            t0=t0,
                            t1=t1,
                            advised=tuple(sorted(advised)),
                            applied=tuple(sorted(self.active)),
                            actions=(),
                            reason=REASON_CIRCUIT,
                        )
                    else:
                        new_active, actions, failures = (
                            self._apply_placement(advised, index)
                        )
                        decision = WindowDecision(
                            index=index,
                            t0=t0,
                            t1=t1,
                            advised=tuple(sorted(advised)),
                            applied=tuple(sorted(new_active)),
                            actions=actions,
                            failed=failures,
                        )
                        self.active = new_active
                run.decisions.append(decision)
                if self._log is not None:
                    # Fsynced before the next window starts.
                    self._log.settle([{
                        "line": decision.journal_line(),
                        "deadline": decision.reason == REASON_DEADLINE,
                    }])
            if self._log is not None:
                self._log.finish()
        finally:
            if self._log is not None:
                self._log.close()
        return run

    def _freeze(
        self, index: int, t0: float, t1: float, reason: str
    ) -> WindowDecision:
        """The degraded-window path: hold placement, age streaks."""
        self.hysteresis.decay()
        return WindowDecision(
            index=index,
            t0=t0,
            t1=t1,
            advised=(),
            applied=tuple(sorted(self.active)),
            actions=(),
            degraded=True,
            reason=reason,
        )


def run_online(
    framework,
    budget_real: int,
    config: OnlineConfig | None = None,
    *,
    checkpoint_dir: str | Path | None = None,
    resume: bool = False,
) -> OnlineRun:
    """Drive one full online session over ``framework``'s application.

    Returns the :class:`OnlineRun`. With ``checkpoint_dir`` every
    settled window is appended to a decision log; ``resume=True``
    re-executes the windows that log holds, verifies each against it,
    and continues from the first unlogged one — the decision journal
    is byte-identical either way.
    """
    return OnlineDaemon(
        framework,
        budget_real,
        config,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
    ).run()
