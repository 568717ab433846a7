"""The cluster simulation: joint node + tier placement under churn.

One :class:`ClusterSim` run processes an arrival trace through a
discrete-event loop:

* **arrival** — a scheduler policy picks the node (or queues the
  job), the node grants the largest contiguous HBW extent up to the
  demand, and the existing knapsack advisor decides *which objects*
  of that tenant live in the granted fast budget;
* **completion** — endogenous: each tenant carries its application's
  calibrated work, and progresses at the FOM its current placement
  and co-tenancy deliver, so departures emerge from the performance
  model instead of an exogenous duration draw;
* **contention** — co-resident tenants split each tier's delivered
  bandwidth evenly. Charging tenant ``i`` of ``k`` co-residents its
  traffic against ``B/k`` is identical to charging ``k x`` its
  traffic against ``B``, which is how the existing
  :class:`~repro.machine.performance.ExecutionModel` is reused
  unchanged — and it guarantees co-located FOM never exceeds
  isolated FOM;
* **departure re-advising** — freed HBW first admits queued jobs
  (arrivals outrank expansion), then surviving tenants whose grant
  trails their demand re-run the advisor at the larger budget; the
  placement diff goes through the online layer's
  :class:`~repro.online.migration.HysteresisFilter` and
  :func:`~repro.online.migration.diff_placements`, and promoted
  bytes stall the survivor at the page-migration bandwidth.

Every decision appends one line to a byte-deterministic journal
(sorted site sets, fixed float formats, no wall-clock input), the
cluster analogue of the online daemon's per-window journal.

The **fault domain** (architecture §16) rides the same event loop:
seeded ``node_crash`` / ``node_drain`` / ``node_recover`` /
``tenant_kill`` events from the :class:`~repro.faults.injector.
FaultInjector` are first-class heap entries; a crash evacuates
surviving tenants through the scheduler under a per-node rescue
budget (unrescued tenants become recorded casualties, never silent
losses); a :class:`~repro.cluster.backpressure.BackpressurePolicy`
sheds or down-grants queued admissions under overload.

The run is a pure function of its identity, so crash safety needs no
state snapshot. With a checkpoint directory every journal line is
appended to a CRC-framed resume log (``cluster.log``, a
:class:`~repro.parallel.journal.DecisionLog`) with one fsync per
event that wrote lines. ``--resume`` re-runs from t=0, checks every
regenerated line against the logged one, refuses a mismatch, a
foreign session or a log longer than the run, and appends after the
logged prefix, so the journal after a SIGKILL is byte-identical to an
uninterrupted run's.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from repro.apps.registry import get_app
from repro.cluster.arrivals import ArrivalStream, JobRequest
from repro.cluster.backpressure import (
    REASON_NEVER_FITS,
    REASON_SHED_DELAY,
    REASON_SHED_DEPTH,
    REASON_SHED_STRANDED,
    BackpressurePolicy,
)
from repro.cluster.events import (
    ARRIVAL,
    COMPLETE,
    NODE_CRASH,
    NODE_DRAIN,
    NODE_RECOVER,
    TENANT_KILL,
    Event,
    EventQueue,
    SimClock,
)
from repro.cluster.metrics import (
    ClusterReport,
    FragmentationTracker,
    Rejection,
    RescueRecord,
    TenantCasualty,
    TenantOutcome,
)
from repro.cluster.node import Extent, ExtentAllocator, NodeSpec
from repro.cluster.scheduler import SchedulerPolicy, get_scheduler
from repro.errors import ConfigError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.ioutil import content_hash
from repro.machine.performance import (
    MIGRATION_BANDWIDTH_DEFAULT,
    ExecutionModel,
    PlacedTraffic,
)
from repro.online.migration import HysteresisFilter, diff_placements
from repro.parallel.journal import DecisionLog
from repro.pipeline.framework import HybridMemoryFramework
from repro.placement.policies import traffic_for_sites

#: File name of the resume log inside the checkpoint directory.
CLUSTER_LOG_FILENAME = "cluster.log"

#: Node lifecycle states.
NODE_UP = "up"
NODE_DRAINING = "draining"
NODE_DOWN = "down"


@dataclass
class Tenant:
    """One admitted job's live state."""

    request: JobRequest
    node: "NodeState"
    extent: Extent
    grant: int
    sites: frozenset[str]
    #: Single-tenant tier split of this tenant's calibrated traffic.
    traffic: PlacedTraffic
    #: Best contention-free FOM over the placements this tenant has
    #: held (the fairness reference; achieved FOM can never beat it).
    fom_isolated: float
    hysteresis: HysteresisFilter
    admission_time: float
    progress: float = 0.0
    rate: float = 0.0
    last_update: float = 0.0
    #: Migration stalls pause progress until this instant.
    stall_until: float = 0.0
    #: Bumped on every reschedule; stale completion events are skipped.
    generation: int = 0

    @property
    def job_id(self) -> int:
        return self.request.job_id

    def sync(self, now: float) -> None:
        """Fold progress up to ``now`` (stall time earns nothing)."""
        start = max(self.last_update, min(self.stall_until, now))
        if now > start:
            self.progress += self.rate * (now - start)
        self.last_update = now


@dataclass
class NodeState:
    """One node's live tenancy and HBW hole structure."""

    spec: NodeSpec
    allocator: ExtentAllocator
    tenants: dict[int, Tenant] = field(default_factory=dict)
    #: Lifecycle: ``up`` (schedulable), ``draining`` (residents bleed
    #: out, no admissions), ``down`` (crashed; MCDRAM contents lost).
    status: str = NODE_UP

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def largest_free(self) -> int:
        return self.allocator.largest_free

    @property
    def total_free(self) -> int:
        return self.allocator.total_free

    @property
    def n_tenants(self) -> int:
        return len(self.tenants)

    def residents(self) -> list[Tenant]:
        """Tenants in deterministic (job id) order."""
        return [self.tenants[j] for j in sorted(self.tenants)]


def _fmt_sites(sites: frozenset[str] | tuple[str, ...]) -> str:
    ordered = sorted(sites) if isinstance(sites, frozenset) else list(sites)
    return ",".join(ordered) if ordered else "-"


class ClusterSim:
    """Seeded multi-tenant placement simulation over a node fleet."""

    def __init__(
        self,
        nodes: tuple[NodeSpec, ...],
        arrivals: ArrivalStream,
        scheduler: SchedulerPolicy | str = "first-fit",
        strategy: str = "misses-0%",
        min_grant_fraction: float = 0.5,
        confirm_windows: int = 1,
        migration_bandwidth: float = MIGRATION_BANDWIDTH_DEFAULT,
        clock: SimClock | None = None,
        fault_plan: FaultPlan | None = None,
        backpressure: BackpressurePolicy | None = None,
        rescue_budget: int | None = None,
        checkpoint_dir: str | None = None,
        resume: bool = False,
        event_pause_seconds: float = 0.0,
    ) -> None:
        if not nodes:
            raise ConfigError("cluster needs at least one node")
        names = [n.name for n in nodes]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate node names: {names}")
        if not 0.0 < min_grant_fraction <= 1.0:
            raise ConfigError(
                f"min grant fraction must be in (0,1], got "
                f"{min_grant_fraction}"
            )
        if migration_bandwidth <= 0:
            raise ConfigError("migration bandwidth must be positive")
        if resume and checkpoint_dir is None:
            raise ConfigError(
                "--resume needs --checkpoint-dir: there is no checkpoint "
                "to resume from without one"
            )
        if rescue_budget is not None and rescue_budget <= 0:
            raise ConfigError(
                f"rescue budget must be positive bytes, got {rescue_budget}"
            )
        if event_pause_seconds < 0:
            raise ConfigError(
                f"event pause must be >= 0, got {event_pause_seconds}"
            )
        self.scheduler_name = (
            scheduler if isinstance(scheduler, str) else scheduler.__name__
        )
        self.scheduler = (
            get_scheduler(scheduler) if isinstance(scheduler, str) else scheduler
        )
        self.fault_plan = fault_plan
        self.injector = FaultInjector(fault_plan) if fault_plan else None
        if (
            fault_plan is not None
            and fault_plan.overload_burst_factor > 1.0
            and fault_plan.overload_burst_fraction > 0
        ):
            # The burst is part of the load, not a runtime mutation:
            # fold it into the stream so determinism (and the session
            # key) sees the bursted trace.
            arrivals = replace(
                arrivals,
                burst_factor=fault_plan.overload_burst_factor,
                burst_fraction=fault_plan.overload_burst_fraction,
            )
        self.arrivals = arrivals
        self.strategy = strategy
        self.min_grant_fraction = min_grant_fraction
        self.confirm_windows = confirm_windows
        self.migration_bandwidth = migration_bandwidth
        self.backpressure = backpressure or BackpressurePolicy()
        self.rescue_budget = rescue_budget
        self.checkpoint_dir = checkpoint_dir
        self.resume = resume
        self.event_pause_seconds = event_pause_seconds
        self.clock = clock or SimClock()
        self.nodes = [
            NodeState(spec=spec, allocator=ExtentAllocator(spec.hbw_budget))
            for spec in nodes
        ]
        self.events = EventQueue()
        self.queue: list[JobRequest] = []
        self.journal: list[str] = []
        self.outcomes: list[TenantOutcome] = []
        self.rejections: list[Rejection] = []
        self.casualties: list[TenantCasualty] = []
        self.rescues: list[RescueRecord] = []
        self.migrated_bytes = 0
        self.evicted_bytes = 0
        self.fragmentation = FragmentationTracker()
        #: One framework per (app, machine) — profile/analyze once.
        self._frameworks: dict[tuple[str, str], HybridMemoryFramework] = {}
        #: Advisor decisions are pure in (app, machine, grant,
        #: strategy); memoised so churny fleets stay cheap.
        self._sites_cache: dict[tuple[str, str, int, str], frozenset[str]] = {}
        #: Contended FOMs are pure in (app, machine, sites,
        #: co-residents): a tenant's traffic is always
        #: ``traffic_for_sites`` of its sites on its node's machine.
        self._foms: dict[tuple[str, str, frozenset[str], int], float] = {}
        self._models: dict[str, ExecutionModel] = {}

    # -- shared per-app machinery ---------------------------------------

    def _framework(self, app_name: str, node: NodeState) -> HybridMemoryFramework:
        key = (app_name, node.spec.machine.name)
        fw = self._frameworks.get(key)
        if fw is None:
            fw = HybridMemoryFramework(
                get_app(app_name),
                machine=node.spec.machine,
                seed=self.arrivals.seed,
            )
            self._frameworks[key] = fw
        return fw

    def _placement_sites(
        self, app_name: str, node: NodeState, grant: int
    ) -> frozenset[str]:
        key = (app_name, node.spec.machine.name, grant, self.strategy)
        sites = self._sites_cache.get(key)
        if sites is None:
            fw = self._framework(app_name, node)
            sites = fw.placement_sites(grant, self.strategy)
            self._sites_cache[key] = sites
        return sites

    def _model(self, node: NodeState) -> ExecutionModel:
        machine = node.spec.machine
        model = self._models.get(machine.name)
        if model is None:
            model = ExecutionModel(machine)
            self._models[machine.name] = model
        return model

    def _fom(self, tenant: Tenant, co_residents: int) -> float:
        """Tenant's FOM when ``co_residents`` share its node.

        An even bandwidth split ``B/k`` is charged by scaling the
        tenant's traffic by ``k`` against the full-node saturation
        curve — ``k * bytes / B == bytes / (B/k)``.
        """
        key = (
            tenant.request.app,
            tenant.node.spec.machine.name,
            tenant.sites,
            co_residents,
        )
        fom = self._foms.get(key)
        if fom is not None:
            return fom
        traffic = tenant.traffic
        if co_residents > 1:
            traffic = PlacedTraffic(
                by_tier={
                    name: nbytes * co_residents
                    for name, nbytes in traffic.by_tier.items()
                }
            )
        fw = self._framework(tenant.request.app, tenant.node)
        cal = fw.app.calibration
        fom = self._foms[key] = self._model(tenant.node).cost(
            traffic,
            compute_time=cal.compute_time,
            work=cal.work,
            cores=tenant.node.spec.machine.cores,
        ).fom
        return fom

    # -- journal ---------------------------------------------------------

    def _log(self, line: str) -> None:
        self.journal.append(f"t={self.clock.now:.6f} {line}")

    def _observe_fragmentation(self) -> None:
        self.fragmentation.observe(
            {n.name: n.allocator.fragmentation for n in self.nodes}
        )

    # -- scheduling mechanics -------------------------------------------

    def _min_grant(self, request: JobRequest) -> int:
        return max(1, int(request.hbw_demand * self.min_grant_fraction))

    def _up_nodes(self) -> list[NodeState]:
        """Nodes a scheduler policy may admit into (declaration
        order). Draining and down nodes take no new tenants."""
        return [n for n in self.nodes if n.status == NODE_UP]

    def _node(self, name: str) -> NodeState:
        for node in self.nodes:
            if node.name == name:
                return node
        raise ConfigError(f"unknown node {name!r}")  # pragma: no cover

    def _reject(self, request: JobRequest, reason: str) -> None:
        self.rejections.append(
            Rejection(
                job_id=request.job_id,
                app=request.app,
                time=self.clock.now,
                reason=reason,
            )
        )
        verb = "reject" if reason == REASON_NEVER_FITS else "shed"
        self._log(
            f"{verb} job={request.job_id} app={request.app} "
            f"demand={request.hbw_demand} reason={reason}"
        )

    def _retime_node(self, node: NodeState) -> None:
        """Re-derive every resident's rate and completion time."""
        now = self.clock.now
        k = node.n_tenants
        for tenant in node.residents():
            tenant.sync(now)
            tenant.rate = self._fom(tenant, k)
            fw = self._framework(tenant.request.app, node)
            remaining = max(0.0, fw.app.calibration.work - tenant.progress)
            finish = max(now, tenant.stall_until) + remaining / tenant.rate
            tenant.generation += 1
            self.events.push(
                finish, COMPLETE, (tenant.job_id, tenant.generation)
            )

    def _admit(self, request: JobRequest, node: NodeState) -> Tenant:
        now = self.clock.now
        grant = min(request.hbw_demand, node.largest_free)
        extent = node.allocator.alloc(grant)
        if extent is None:  # pragma: no cover - largest_free guarantees fit
            raise ConfigError(
                f"node {node.name} lost the hole for job {request.job_id}"
            )
        sites = self._placement_sites(request.app, node, grant)
        fw = self._framework(request.app, node)
        traffic = traffic_for_sites(
            fw.app, node.spec.machine, fw.profile(), sites
        )
        hysteresis = HysteresisFilter(self.confirm_windows)
        for _ in range(self.confirm_windows):
            hysteresis.update(sites)
        tenant = Tenant(
            request=request,
            node=node,
            extent=extent,
            grant=grant,
            sites=sites,
            traffic=traffic,
            fom_isolated=0.0,
            hysteresis=hysteresis,
            admission_time=now,
            last_update=now,
        )
        tenant.fom_isolated = self._fom(tenant, 1)
        node.tenants[request.job_id] = tenant
        self._log(
            f"admit job={request.job_id} node={node.name} grant={grant} "
            f"offset={extent.offset} sites={_fmt_sites(sites)}"
        )
        if (
            self.injector is not None
            and self.fault_plan.tenant_kill_rate > 0
            and tenant.fom_isolated > 0
        ):
            frac = self.injector.tenant_kill_fraction(request.job_id)
            if frac is not None:
                fw = self._framework(request.app, node)
                kill_at = now + frac * (
                    fw.app.calibration.work / tenant.fom_isolated
                )
                self.events.push(kill_at, TENANT_KILL, request.job_id)
                self._log(
                    f"schedule-kill job={request.job_id} at={kill_at:.6f}"
                )
        return tenant

    def _largest_up_hole(self) -> int:
        return max(
            (n.largest_free for n in self._up_nodes()), default=0
        )

    def _schedule(self, nodes: list[NodeState], bar: int) -> NodeState | None:
        """Ask the policy for a node, holding it to its contract
        (:data:`~repro.cluster.scheduler.SchedulerPolicy`)."""
        node = self.scheduler(nodes, bar)
        if node is None:
            return None
        if not any(node is n for n in nodes) or node.largest_free < bar:
            raise ConfigError(
                f"scheduler {self.scheduler_name!r} broke its contract: "
                f"returned {getattr(node, 'name', node)!r}, which is not "
                f"an offered node whose largest hole clears {bar} bytes"
            )
        return node

    def _select_node(
        self, request: JobRequest, largest: int
    ) -> NodeState | None:
        """Pick a home for the request — at the normal minimum grant
        first, then (if backpressure allows) at the down-granted bar.

        ``largest`` is the largest up-node hole. A policy never places
        a request in a hole below its bar, so an attempt whose bar
        exceeds ``largest`` could only fail and is not made; a failed
        attempt writes nothing to the journal, so skipping it cannot
        change one.
        """
        min_grant = self._min_grant(request)
        if min_grant <= largest:
            node = self._schedule(self._up_nodes(), min_grant)
            if node is not None:
                return node
        reduced = self.backpressure.down_grant(request.hbw_demand)
        if reduced is not None and reduced < min_grant and reduced <= largest:
            node = self._schedule(self._up_nodes(), reduced)
            if node is not None:
                self._log(
                    f"downgrant job={request.job_id} "
                    f"min={min_grant}->{reduced}"
                )
                return node
        return None

    def _try_admit(
        self, request: JobRequest, queued: bool, largest: int
    ) -> bool:
        """Place one request; queue, shed or reject it if no node
        fits now (``largest``: the largest up-node hole)."""
        node = self._select_node(request, largest)
        if node is not None:
            if queued:
                delay = self.clock.now - request.arrival_time
                self._log(
                    f"dequeue job={request.job_id} wait={delay:.6f}"
                )
            self._admit(request, node)
            self._retime_node(node)
            return True
        if queued:
            return False
        if self._min_grant(request) > max(
            n.spec.hbw_budget for n in self.nodes
        ):
            self._reject(request, REASON_NEVER_FITS)
        elif self.backpressure.sheds_at_depth(len(self.queue)):
            self._reject(request, REASON_SHED_DEPTH)
        else:
            self.queue.append(request)
            self._log(
                f"queue job={request.job_id} app={request.app} "
                f"demand={request.hbw_demand}"
            )
        return False

    def _drain_queue(self) -> None:
        """FIFO pass over waiting jobs after capacity was freed.

        The largest up-node hole is read once per pass and again only
        after an admission, the one step that changes it; a request
        whose bar exceeds it keeps its place without a scheduler call.
        """
        largest = self._largest_up_hole()
        still_waiting: list[JobRequest] = []
        for request in self.queue:
            if self._try_admit(request, queued=True, largest=largest):
                largest = self._largest_up_hole()
            else:
                still_waiting.append(request)
        self.queue = still_waiting

    def _shed_overdue(self) -> None:
        """Backpressure's delay dial: shed queued requests that have
        waited past the threshold (classified, logged, reconciled)."""
        if self.backpressure.max_queue_delay is None or not self.queue:
            return
        now = self.clock.now
        keep: list[JobRequest] = []
        for request in self.queue:
            if self.backpressure.overdue(request.arrival_time, now):
                self._reject(request, REASON_SHED_DELAY)
            else:
                keep.append(request)
        self.queue = keep

    def _readvise_survivors(self, node: NodeState) -> None:
        """Grow under-granted survivors into the freed HBW."""
        for tenant in node.residents():
            if tenant.grant >= tenant.request.hbw_demand:
                continue
            node.allocator.free(tenant.extent)
            new_grant = min(tenant.request.hbw_demand, node.largest_free)
            extent = node.allocator.alloc(max(new_grant, tenant.grant))
            if extent is None:  # pragma: no cover - freed hole refits
                raise ConfigError(
                    f"node {node.name} cannot re-seat job {tenant.job_id}"
                )
            if extent.size == tenant.grant:
                tenant.extent = extent
                continue
            old_grant, tenant.extent = tenant.grant, extent
            tenant.grant = extent.size
            advised = self._placement_sites(
                tenant.request.app, node, tenant.grant
            )
            applied = tenant.hysteresis.update(advised)
            promotions, demotions = diff_placements(tenant.sites, applied)
            fw = self._framework(tenant.request.app, node)
            moved = sum(
                fw.app.find_object(site).size for site in promotions
            )
            tenant.sites = applied
            tenant.traffic = traffic_for_sites(
                fw.app, node.spec.machine, fw.profile(), applied
            )
            tenant.fom_isolated = max(
                tenant.fom_isolated, self._fom(tenant, 1)
            )
            if moved:
                self.migrated_bytes += moved
                stall = moved / self.migration_bandwidth
                tenant.stall_until = (
                    max(tenant.stall_until, self.clock.now) + stall
                )
            self._log(
                f"readvise job={tenant.job_id} node={node.name} "
                f"grant={old_grant}->{tenant.grant} "
                f"promote={_fmt_sites(promotions)} "
                f"demote={_fmt_sites(demotions)} migrated={moved}"
            )

    # -- event handlers --------------------------------------------------

    def _on_arrival(self, request: JobRequest) -> None:
        self._log(
            f"arrive job={request.job_id} app={request.app} "
            f"demand={request.hbw_demand}"
        )
        self._try_admit(
            request, queued=False, largest=self._largest_up_hole()
        )

    def _on_complete(self, job_id: int, generation: int) -> None:
        node = next(
            (n for n in self.nodes if job_id in n.tenants), None
        )
        if node is None:
            return  # already departed (stale event)
        tenant = node.tenants[job_id]
        if tenant.generation != generation:
            return  # superseded by a retime
        now = self.clock.now
        tenant.sync(now)
        del node.tenants[job_id]
        node.allocator.free(tenant.extent)
        evicted = sum(
            self._framework(tenant.request.app, node)
            .app.find_object(site)
            .size
            for site in sorted(tenant.sites)
        )
        self.evicted_bytes += evicted
        residence = now - tenant.admission_time
        fw = self._framework(tenant.request.app, node)
        achieved = (
            fw.app.calibration.work / residence if residence > 0 else 0.0
        )
        self.outcomes.append(
            TenantOutcome(
                job_id=tenant.job_id,
                app=tenant.request.app,
                node=node.name,
                hbw_demand=tenant.request.hbw_demand,
                hbw_granted=tenant.grant,
                arrival_time=tenant.request.arrival_time,
                admission_time=tenant.admission_time,
                completion_time=now,
                fom_isolated=tenant.fom_isolated,
                fom_achieved=achieved,
            )
        )
        self._log(
            f"depart job={job_id} node={node.name} evicted={evicted} "
            f"fom={achieved:.6f}"
        )
        self._drain_queue()
        if node.status == NODE_UP:
            self._readvise_survivors(node)
        self._retime_node(node)

    # -- fault-domain event handlers -------------------------------------

    def _casualty(self, tenant: Tenant, node_name: str, reason: str) -> None:
        fw = self._framework(tenant.request.app, tenant.node)
        work = fw.app.calibration.work
        fraction = min(1.0, tenant.progress / work) if work > 0 else 0.0
        self.casualties.append(
            TenantCasualty(
                job_id=tenant.job_id,
                app=tenant.request.app,
                node=node_name,
                time=self.clock.now,
                reason=reason,
                progress_fraction=fraction,
            )
        )
        self._log(
            f"casualty job={tenant.job_id} node={node_name} "
            f"reason={reason} progress={fraction:.6f}"
        )

    def _rescue(self, tenant: Tenant, budgets: dict[str, int | None]) -> bool:
        """Re-home one crash victim through the scheduler, bounded by
        the per-node rescue budgets. Returns True when it landed."""
        request = tenant.request
        min_grant = self._min_grant(request)
        candidates = [
            n
            for n in self._up_nodes()
            if budgets.get(n.name) is None or budgets[n.name] >= min_grant
        ]
        if min_grant > max(
            (n.largest_free for n in candidates), default=0
        ):
            return False
        target = self._schedule(candidates, min_grant)
        if target is None:
            return False
        budget_left = budgets.get(target.name)
        grant = min(request.hbw_demand, target.largest_free)
        if budget_left is not None:
            grant = min(grant, budget_left)
            budgets[target.name] = budget_left - grant
        extent = target.allocator.alloc(grant)
        if extent is None:  # pragma: no cover - largest_free guarantees fit
            raise ConfigError(
                f"node {target.name} lost the hole rescuing job "
                f"{request.job_id}"
            )
        from_node = tenant.node.name
        sites = self._placement_sites(request.app, target, grant)
        fw = self._framework(request.app, target)
        hysteresis = HysteresisFilter(self.confirm_windows)
        for _ in range(self.confirm_windows):
            hysteresis.update(sites)
        # The crashed node's MCDRAM died with it: every fast byte of
        # the new placement must be re-promoted from slow memory,
        # charged at migration bandwidth like any other promotion.
        moved = sum(fw.app.find_object(site).size for site in sorted(sites))
        tenant.node = target
        tenant.extent = extent
        tenant.grant = grant
        tenant.sites = sites
        tenant.hysteresis = hysteresis
        tenant.traffic = traffic_for_sites(
            fw.app, target.spec.machine, fw.profile(), sites
        )
        tenant.fom_isolated = max(tenant.fom_isolated, self._fom(tenant, 1))
        if moved:
            self.migrated_bytes += moved
            tenant.stall_until = (
                max(tenant.stall_until, self.clock.now)
                + moved / self.migration_bandwidth
            )
        target.tenants[request.job_id] = tenant
        self.rescues.append(
            RescueRecord(
                job_id=request.job_id,
                app=request.app,
                from_node=from_node,
                to_node=target.name,
                time=self.clock.now,
                moved_bytes=moved,
            )
        )
        self._log(
            f"rescue job={request.job_id} from={from_node} "
            f"to={target.name} grant={grant} migrated={moved}"
        )
        return True

    def _on_node_crash(self, name: str) -> None:
        node = self._node(name)
        if node.status == NODE_DOWN:
            return
        victims = node.residents()
        node.status = NODE_DOWN
        node.tenants = {}
        # The extents died with the node: reset wholesale instead of
        # freeing one by one.
        node.allocator.reset()
        self._log(f"crash node={name} victims={len(victims)}")
        budgets: dict[str, int | None] = {
            n.name: self.rescue_budget for n in self._up_nodes()
        }
        touched: dict[str, NodeState] = {}
        for tenant in victims:
            tenant.sync(self.clock.now)
            if self._rescue(tenant, budgets):
                touched[tenant.node.name] = tenant.node
            else:
                self._casualty(tenant, name, "node-crash")
        for target in touched.values():
            self._retime_node(target)
        if (
            self.fault_plan is not None
            and self.fault_plan.node_recover_seconds > 0
        ):
            self.events.push(
                self.clock.now + self.fault_plan.node_recover_seconds,
                NODE_RECOVER,
                name,
            )

    def _on_node_drain(self, name: str) -> None:
        node = self._node(name)
        if node.status != NODE_UP:
            return
        node.status = NODE_DRAINING
        self._log(f"drain node={name} residents={node.n_tenants}")
        if (
            self.fault_plan is not None
            and self.fault_plan.node_recover_seconds > 0
        ):
            self.events.push(
                self.clock.now + self.fault_plan.node_recover_seconds,
                NODE_RECOVER,
                name,
            )

    def _on_node_recover(self, name: str) -> None:
        node = self._node(name)
        if node.status == NODE_UP:
            return
        node.status = NODE_UP
        self._log(f"recover node={name}")
        self._drain_queue()

    def _on_tenant_kill(self, job_id: int) -> None:
        node = next((n for n in self.nodes if job_id in n.tenants), None)
        if node is None:
            return  # completed, shed or already a casualty: stale kill
        tenant = node.tenants[job_id]
        tenant.sync(self.clock.now)
        del node.tenants[job_id]
        node.allocator.free(tenant.extent)
        self._casualty(tenant, node.name, "tenant-kill")
        self._drain_queue()
        if node.status == NODE_UP:
            self._readvise_survivors(node)
        self._retime_node(node)

    # -- session identity -------------------------------------------------

    def _identity(self) -> dict:
        """Everything that shapes the event timeline (the wall-clock
        chaos pause is excluded so a stretched run resumes cleanly)."""
        bp = self.backpressure
        return {
            "nodes": [
                {
                    "name": n.spec.name,
                    "machine": n.spec.machine.name,
                    "hbw_budget": n.spec.hbw_budget,
                }
                for n in self.nodes
            ],
            "arrivals": {
                "seed": self.arrivals.seed,
                "n_arrivals": self.arrivals.n_arrivals,
                "rate": self.arrivals.rate,
                "mix": list(self.arrivals.mix),
                "demands": list(self.arrivals.demands),
                "burst_factor": self.arrivals.burst_factor,
                "burst_fraction": self.arrivals.burst_fraction,
            },
            "scheduler": self.scheduler_name,
            "strategy": self.strategy,
            "min_grant_fraction": self.min_grant_fraction,
            "confirm_windows": self.confirm_windows,
            "migration_bandwidth": self.migration_bandwidth,
            "fault_plan": (
                self.fault_plan.to_dict() if self.fault_plan else None
            ),
            "backpressure": {
                "max_queue_depth": bp.max_queue_depth,
                "max_queue_delay": bp.max_queue_delay,
                "down_grant_fraction": bp.down_grant_fraction,
            },
            "rescue_budget": self.rescue_budget,
        }

    def _session_key(self, trace: tuple[JobRequest, ...]) -> str:
        """Content hash pinning this run: its identity plus the
        generated arrival trace. A resume under any other key is
        refused."""
        return content_hash(
            {
                "identity": self._identity(),
                "trace": [
                    (r.job_id, r.app, r.arrival_time, r.hbw_demand)
                    for r in trace
                ],
            }
        )[:32]

    # -- run -------------------------------------------------------------

    def _schedule_faults(self, trace: tuple[JobRequest, ...]) -> None:
        """Push the seeded node-fault schedule (after the arrivals, so
        same-instant collisions resolve arrival-first, fault-second —
        deterministically)."""
        if self.injector is None or not (
            self.fault_plan.node_crash_rate > 0
            or self.fault_plan.node_drain_rate > 0
        ):
            return
        horizon = trace[-1].arrival_time
        names = [n.name for n in self.nodes]
        for at, kind, name in self.injector.node_fault_schedule(
            names, horizon
        ):
            self.events.push(at, kind, name)
            self._log_at(at, f"schedule-fault kind={kind} node={name}")

    def _log_at(self, at: float, line: str) -> None:
        """Journal a future-dated scheduling decision (made now, at
        clock time zero during setup)."""
        self.journal.append(f"t={self.clock.now:.6f} {line} at={at:.6f}")

    def _dispatch(self, event: Event) -> None:
        if event.kind == ARRIVAL:
            self._on_arrival(event.payload)
        elif event.kind == COMPLETE:
            self._on_complete(*event.payload)
        elif event.kind == NODE_CRASH:
            self._on_node_crash(event.payload)
        elif event.kind == NODE_DRAIN:
            self._on_node_drain(event.payload)
        elif event.kind == NODE_RECOVER:
            self._on_node_recover(event.payload)
        elif event.kind == TENANT_KILL:
            self._on_tenant_kill(event.payload)
        else:  # pragma: no cover
            raise ConfigError(f"unknown event kind {event.kind!r}")

    def run(self) -> ClusterReport:
        """Process the whole trace; returns the populated report.

        With a checkpoint directory every journal line is settled into
        ``cluster.log`` as it is written: one fsync per event that
        wrote lines. A resume re-runs from t=0 and verifies each line
        the log holds before appending the rest.
        """
        trace = self.arrivals.generate()
        log = (
            DecisionLog.open(
                self.checkpoint_dir,
                CLUSTER_LOG_FILENAME,
                self._session_key(trace),
                resume=self.resume,
                owner="cluster session",
                noun="journal line",
            )
            if self.checkpoint_dir is not None
            else None
        )
        try:
            report = self._run(trace, log)
            if log is not None:
                log.finish()
        finally:
            if log is not None:
                log.close()
        return report

    def _settle(self, log: DecisionLog) -> None:
        if log.settled < len(self.journal):
            log.settle(
                [{"line": line} for line in self.journal[log.settled:]]
            )

    def _run(
        self, trace: tuple[JobRequest, ...], log: DecisionLog | None
    ) -> ClusterReport:
        self.journal.append(
            f"# repro-cluster nodes={len(self.nodes)} "
            f"arrivals={len(trace)} seed={self.arrivals.seed} "
            f"scheduler={self.scheduler_name} "
            f"strategy={self.strategy} "
            f"rate={self.arrivals.rate:.6f}"
        )
        if self.arrivals.bursty:
            self.journal.append(
                f"# burst factor={self.arrivals.burst_factor:.6f} "
                f"fraction={self.arrivals.burst_fraction:.6f}"
            )
        for request in trace:
            self.events.push(request.arrival_time, ARRIVAL, request)
        self._schedule_faults(trace)
        if log is not None:
            self._settle(log)
        while self.events:
            event = self.events.pop()
            self.clock.advance(event.time)
            self._shed_overdue()
            self._dispatch(event)
            self._observe_fragmentation()
            if log is not None:
                self._settle(log)
            if self.event_pause_seconds > 0 and not (
                log is not None and log.replaying
            ):
                time.sleep(self.event_pause_seconds)
        # Anything still queued never found a home: classified
        # rejections, so the accounting reconciles.
        for request in self.queue:
            self._reject(request, REASON_SHED_STRANDED)
        self.queue = []
        report = ClusterReport(
            n_nodes=len(self.nodes),
            n_arrivals=len(trace),
            scheduler=self.scheduler_name,
            strategy=self.strategy,
            seed=self.arrivals.seed,
            tenants=tuple(
                sorted(self.outcomes, key=lambda t: t.job_id)
            ),
            rejections=tuple(self.rejections),
            casualties=tuple(
                sorted(self.casualties, key=lambda c: (c.time, c.job_id))
            ),
            rescues=tuple(
                sorted(self.rescues, key=lambda r: (r.time, r.job_id))
            ),
            mean_fragmentation=self.fragmentation.mean,
            final_fragmentation=self.fragmentation.last,
            migrated_bytes=self.migrated_bytes,
            evicted_bytes=self.evicted_bytes,
            makespan=self.clock.now,
        )
        self.journal.append(
            f"fragmentation mean={report.mean_fragmentation:.6f} "
            f"final={report.final_fragmentation:.6f}"
        )
        self.journal.append(
            f"fairness={report.fairness:.6f} "
            f"aggregate_fom={report.aggregate_fom:.6f} "
            f"isolated={report.aggregate_fom_isolated:.6f} "
            f"rejected={report.n_rejected} "
            f"migrated_bytes={report.migrated_bytes} "
            f"evicted_bytes={report.evicted_bytes}"
        )
        self.journal.append(
            f"accounting arrivals={report.n_arrivals} "
            f"completed={len(report.tenants)} "
            f"rejected={report.n_rejected} "
            f"never_fits={report.n_never_fits} shed={report.n_shed} "
            f"casualties={report.n_casualties} "
            f"rescued={report.n_rescued} "
            f"reconciled={str(report.accounted).lower()}"
        )
        if log is not None:
            self._settle(log)
        return report

    def journal_text(self) -> str:
        """The full decision journal (what CI byte-compares)."""
        return "\n".join(self.journal) + "\n"


def run_cluster(
    nodes: tuple[NodeSpec, ...],
    arrivals: ArrivalStream,
    scheduler: str = "first-fit",
    strategy: str = "misses-0%",
    **kwargs,
) -> tuple[ClusterReport, str]:
    """One-call convenience: (report, journal text)."""
    sim = ClusterSim(
        nodes, arrivals, scheduler=scheduler, strategy=strategy, **kwargs
    )
    report = sim.run()
    return report, sim.journal_text()
