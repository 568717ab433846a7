"""Cluster run metrics: fairness, fragmentation, throughput, delay.

Definitions (architecture §15):

* **aggregate FOM** — sum over completed tenants of work done divided
  by residence time (admission to completion, stalls included). Under
  the bandwidth-split contention model every tenant's achieved FOM is
  bounded by its isolated FOM, so the aggregate is bounded by the sum
  of isolated FOMs — the sanity check CI asserts.
* **HBW fragmentation** — per node, ``1 - largest_free/total_free``
  over the extent allocator's hole list; reported as the event-time
  mean (sampled after every event) and the final value.
* **Jain's fairness index** — ``(Σx)² / (n·Σx²)`` over the per-tenant
  efficiency ``x = fom_achieved / fom_isolated``; 1.0 when contention
  is shared perfectly evenly, → 1/n when one tenant absorbs it all.
* **queueing delay** — mean seconds between arrival and admission
  over admitted jobs (0 for jobs admitted on arrival).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.errors import ConfigError


def jain_index(values: list[float]) -> float:
    """Jain's fairness index of ``values`` (1.0 for an empty list —
    nothing observed is vacuously fair)."""
    if not values:
        return 1.0
    if any(v < 0 for v in values):
        raise ConfigError("fairness is defined over non-negative values")
    total = sum(values)
    squares = sum(v * v for v in values)
    if squares == 0.0:
        return 1.0
    return (total * total) / (len(values) * squares)


@dataclass(frozen=True, slots=True)
class TenantOutcome:
    """One tenant's life, as the report sees it."""

    job_id: int
    app: str
    node: str
    hbw_demand: int
    hbw_granted: int
    arrival_time: float
    admission_time: float
    completion_time: float
    #: FOM this tenant would have achieved alone on its node with the
    #: same grant (contention-free reference).
    fom_isolated: float
    #: Work / residence time actually achieved (contention + stalls).
    fom_achieved: float

    @property
    def queueing_delay(self) -> float:
        return self.admission_time - self.arrival_time

    @property
    def efficiency(self) -> float:
        """Fraction of the isolated FOM the tenant actually got."""
        if self.fom_isolated == 0.0:
            return 0.0
        return self.fom_achieved / self.fom_isolated


@dataclass(frozen=True, slots=True)
class Rejection:
    """One request the cluster turned away, with its classification.

    ``reason`` is one of
    :data:`repro.cluster.backpressure.REJECTION_REASONS`:
    ``never-fits`` (demand exceeds every node's whole budget),
    ``shed-queue-depth`` / ``shed-queue-delay`` (backpressure), or
    ``shed-stranded`` (still queued when the run ended).
    """

    job_id: int
    app: str
    time: float
    reason: str


@dataclass(frozen=True, slots=True)
class TenantCasualty:
    """An admitted tenant the cluster lost before completion.

    Casualties are recorded, never silent: the report's accounting
    reconciles arrivals = completed + rejected + casualties. ``reason``
    is ``node-crash`` (home node died and no rescue landed) or
    ``tenant-kill`` (injected mid-residence kill).
    """

    job_id: int
    app: str
    node: str
    time: float
    reason: str
    #: Fraction of the tenant's work done when it was lost.
    progress_fraction: float


@dataclass(frozen=True, slots=True)
class RescueRecord:
    """One successful crash evacuation (tenant re-homed, not lost)."""

    job_id: int
    app: str
    from_node: str
    to_node: str
    time: float
    #: Real bytes re-promoted on the new node, charged at migration
    #: bandwidth against the tenant's progress.
    moved_bytes: int


@dataclass(frozen=True, slots=True)
class ClusterReport:
    """Everything one cluster run produced."""

    n_nodes: int
    n_arrivals: int
    scheduler: str
    strategy: str
    seed: int
    tenants: tuple[TenantOutcome, ...] = ()
    rejections: tuple[Rejection, ...] = ()
    casualties: tuple[TenantCasualty, ...] = ()
    rescues: tuple[RescueRecord, ...] = ()
    #: Event-time mean of the fleet-mean fragmentation.
    mean_fragmentation: float = 0.0
    final_fragmentation: float = 0.0
    #: Real bytes migrated by survivor re-advising over the whole run.
    migrated_bytes: int = 0
    #: Real bytes evicted from HBW by departures.
    evicted_bytes: int = 0
    #: Simulated time of the last event.
    makespan: float = 0.0

    @property
    def aggregate_fom(self) -> float:
        return sum(t.fom_achieved for t in self.tenants)

    @property
    def aggregate_fom_isolated(self) -> float:
        return sum(t.fom_isolated for t in self.tenants)

    @property
    def fairness(self) -> float:
        return jain_index([t.efficiency for t in self.tenants])

    @property
    def mean_queueing_delay(self) -> float:
        if not self.tenants:
            return 0.0
        return sum(t.queueing_delay for t in self.tenants) / len(self.tenants)

    @property
    def rejected(self) -> tuple[int, ...]:
        """Rejected job ids, in rejection order (schema-1 compat view
        over the classified :attr:`rejections`)."""
        return tuple(r.job_id for r in self.rejections)

    @property
    def n_rejected(self) -> int:
        return len(self.rejections)

    @property
    def n_casualties(self) -> int:
        return len(self.casualties)

    @property
    def n_rescued(self) -> int:
        return len(self.rescues)

    @property
    def n_shed(self) -> int:
        return sum(1 for r in self.rejections if r.reason != "never-fits")

    @property
    def n_never_fits(self) -> int:
        return sum(1 for r in self.rejections if r.reason == "never-fits")

    @property
    def accounted(self) -> bool:
        """Does every arrival reconcile to exactly one fate?

        completed + rejected (never-fits and shed) + casualties must
        equal the arrival count, and no job may appear under two
        fates. Rescued tenants are not a fate of their own — a rescue
        re-homes a tenant that then completes (a tenant) or dies
        anyway (a casualty).
        """
        completed = {t.job_id for t in self.tenants}
        rejected = {r.job_id for r in self.rejections}
        lost = {c.job_id for c in self.casualties}
        if completed & rejected or completed & lost or rejected & lost:
            return False
        return (
            len(completed) + len(rejected) + len(lost) == self.n_arrivals
            and len(completed) == len(self.tenants)
            and len(rejected) == len(self.rejections)
            and len(lost) == len(self.casualties)
        )

    def to_dict(self) -> dict:
        return {
            "schema": "repro-cluster/2",
            "n_nodes": self.n_nodes,
            "n_arrivals": self.n_arrivals,
            "scheduler": self.scheduler,
            "strategy": self.strategy,
            "seed": self.seed,
            "aggregate_fom": self.aggregate_fom,
            "aggregate_fom_isolated": self.aggregate_fom_isolated,
            "fairness": self.fairness,
            "mean_fragmentation": self.mean_fragmentation,
            "final_fragmentation": self.final_fragmentation,
            "mean_queueing_delay": self.mean_queueing_delay,
            "rejected": list(self.rejected),
            "rejections": [
                {
                    "job_id": r.job_id,
                    "app": r.app,
                    "time": r.time,
                    "reason": r.reason,
                }
                for r in self.rejections
            ],
            "casualties": [
                {
                    "job_id": c.job_id,
                    "app": c.app,
                    "node": c.node,
                    "time": c.time,
                    "reason": c.reason,
                    "progress_fraction": c.progress_fraction,
                }
                for c in self.casualties
            ],
            "rescues": [
                {
                    "job_id": r.job_id,
                    "app": r.app,
                    "from_node": r.from_node,
                    "to_node": r.to_node,
                    "time": r.time,
                    "moved_bytes": r.moved_bytes,
                }
                for r in self.rescues
            ],
            "accounting": {
                "arrivals": self.n_arrivals,
                "completed": len(self.tenants),
                "rejected": self.n_rejected,
                "never_fits": self.n_never_fits,
                "shed": self.n_shed,
                "casualties": self.n_casualties,
                "rescued": self.n_rescued,
                "reconciled": self.accounted,
            },
            "migrated_bytes": self.migrated_bytes,
            "evicted_bytes": self.evicted_bytes,
            "makespan": self.makespan,
            "tenants": [
                {
                    "job_id": t.job_id,
                    "app": t.app,
                    "node": t.node,
                    "hbw_demand": t.hbw_demand,
                    "hbw_granted": t.hbw_granted,
                    "arrival_time": t.arrival_time,
                    "admission_time": t.admission_time,
                    "completion_time": t.completion_time,
                    "fom_isolated": t.fom_isolated,
                    "fom_achieved": t.fom_achieved,
                }
                for t in self.tenants
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


@dataclass
class FragmentationTracker:
    """Event-time average of the fleet-mean fragmentation."""

    samples: int = 0
    accumulated: float = 0.0
    last: float = 0.0

    def observe(self, per_node: dict[str, float]) -> None:
        mean = (
            sum(per_node.values()) / len(per_node) if per_node else 0.0
        )
        self.samples += 1
        self.accumulated += mean
        self.last = mean

    @property
    def mean(self) -> float:
        if self.samples == 0:
            return 0.0
        return self.accumulated / self.samples
