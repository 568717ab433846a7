"""Cluster-scale multi-tenant placement (ROADMAP item 2).

The paper places one application on one node once; this package
scales the question up: a fleet of hybrid-memory nodes, tenants
arriving and departing over time, per-node MCDRAM budgets carved into
contiguous grants, co-residents splitting delivered bandwidth, and
freed capacity re-advised to survivors. See architecture §15. The
fault domain — node crash/drain/recover, tenant kills, crash rescue,
overload backpressure, and the SIGKILL-safe resume log — is
architecture §16.
"""

from repro.cluster.arrivals import (
    DEFAULT_MIX,
    DEMAND_LADDER,
    ArrivalStream,
    JobRequest,
)
from repro.cluster.backpressure import (
    REJECTION_REASONS,
    BackpressurePolicy,
)
from repro.cluster.events import EventQueue, SimClock
from repro.cluster.metrics import (
    ClusterReport,
    Rejection,
    RescueRecord,
    TenantCasualty,
    TenantOutcome,
    jain_index,
)
from repro.cluster.node import (
    Extent,
    ExtentAllocator,
    NodeSpec,
    make_fleet,
)
from repro.cluster.scheduler import SCHEDULER_NAMES, get_scheduler
from repro.cluster.simulator import ClusterSim, run_cluster

__all__ = [
    "ArrivalStream",
    "BackpressurePolicy",
    "ClusterReport",
    "ClusterSim",
    "DEFAULT_MIX",
    "DEMAND_LADDER",
    "EventQueue",
    "Extent",
    "ExtentAllocator",
    "JobRequest",
    "NodeSpec",
    "REJECTION_REASONS",
    "Rejection",
    "RescueRecord",
    "SCHEDULER_NAMES",
    "SimClock",
    "TenantCasualty",
    "TenantOutcome",
    "get_scheduler",
    "jain_index",
    "make_fleet",
    "run_cluster",
]
