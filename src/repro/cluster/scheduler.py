"""Pluggable node-selection policies for cluster admission.

The joint scheduler decides twice per arrival: *which node* hosts the
tenant (this module) and *which objects* of the tenant go fast (the
existing knapsack advisor, run against the node's remaining HBW
budget by the simulator). Node selection sees each node's current
hole structure and tenancy and returns the node to admit into, or
``None`` to queue the job.

All three policies only admit a node whose *largest contiguous hole*
clears the job's minimum acceptable grant — fragmentation, not just
free bytes, decides admissibility. The simulator hands policies only
*eligible* nodes (status ``up``): draining and crashed nodes never
appear in the list, so policies stay fault-oblivious.
"""

from __future__ import annotations

from typing import Callable, Protocol

from repro.errors import ConfigError


class NodeView(Protocol):
    """What a policy may inspect about one node (read-only)."""

    name: str

    @property
    def largest_free(self) -> int: ...

    @property
    def total_free(self) -> int: ...

    @property
    def n_tenants(self) -> int: ...


#: A policy maps (nodes in declaration order, bar) to the chosen node
#: or None. Declaration order is the deterministic tie-break
#: everywhere. The bar is the smallest contiguous hole the request
#: accepts (its minimum grant, or a backpressure down-grant).
#:
#: The contract: a policy returns ``None`` or one of the nodes it was
#: handed whose ``largest_free`` is at least the bar — never a hole
#: below the bar — and it decides from what it is handed alone, so
#: a call it is spared cannot change a later decision. The simulator
#: relies on this to skip every call whose bar exceeds the largest
#: offered hole (the call could only return ``None``), and raises
#: :class:`~repro.errors.ConfigError` when a policy, a user callable
#: included, returns anything else.
SchedulerPolicy = Callable[[list, int], "object | None"]


def first_fit(nodes: list, min_grant: int):
    """First node (declaration order) whose largest hole fits."""
    for node in nodes:
        if node.largest_free >= min_grant:
            return node
    return None


def best_fit(nodes: list, min_grant: int):
    """Node with the *tightest* hole that still fits.

    Preserves the large holes for large tenants — the classic
    anti-fragmentation heuristic, at the cost of packing nodes hot.
    """
    best = None
    for node in nodes:
        hole = node.largest_free
        if hole >= min_grant and (best is None or hole < best.largest_free):
            best = node
    return best


def load_aware(nodes: list, min_grant: int):
    """Least-loaded fitting node (fewest resident tenants).

    Tenants on a node split its delivered bandwidth, so spreading
    tenancy is the contention-minimising choice even when it
    fragments budgets faster.
    """
    best = None
    for node in nodes:
        if node.largest_free >= min_grant and (
            best is None or node.n_tenants < best.n_tenants
        ):
            best = node
    return best


_POLICIES: dict[str, SchedulerPolicy] = {
    "first-fit": first_fit,
    "best-fit": best_fit,
    "load-aware": load_aware,
}

SCHEDULER_NAMES: tuple[str, ...] = tuple(_POLICIES)


def get_scheduler(name: str) -> SchedulerPolicy:
    """Look a policy up by CLI name."""
    try:
        return _POLICIES[name]
    except KeyError:
        raise ConfigError(
            f"unknown scheduler {name!r}; have {sorted(_POLICIES)}"
        ) from None
