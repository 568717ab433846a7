"""Cluster nodes: machine + per-node HBW budget + extent allocator.

A node is a :class:`~repro.machine.config.MachineConfig` (the tier
curves the execution model charges against) plus the slice of its fast
tier this cluster makes schedulable. Tenant grants are carved out of
that slice as *contiguous extents* by a first-fit free-list allocator
— contiguity is what makes HBW fragmentation a real phenomenon here:
after churn, the free bytes may be plentiful but scattered, and an
arriving tenant needs one hole big enough for its grant, exactly like
``hbw_malloc`` carving a physically-backed span out of MCDRAM.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.machine.config import MachineConfig, xeon_phi_7250


@dataclass(frozen=True, slots=True)
class Extent:
    """One contiguous carve-out of a node's HBW slice (real bytes)."""

    offset: int
    size: int

    def __post_init__(self) -> None:
        if self.offset < 0 or self.size <= 0:
            raise ConfigError(
                f"extent needs offset >= 0 and size > 0, got "
                f"({self.offset}, {self.size})"
            )

    @property
    def end(self) -> int:
        return self.offset + self.size


class ExtentAllocator:
    """First-fit contiguous allocator over ``[0, total)`` real bytes.

    Frees coalesce with both neighbours, so an emptied node always
    returns to one maximal hole. ``largest_free``/``total_free`` feed
    the fragmentation metric: ``1 - largest_free / total_free`` is 0
    when every free byte is reachable by one allocation and approaches
    1 as churn shatters the space.

    ``total_free``, ``largest_free`` and ``fragmentation`` are plain
    attributes derived from the hole list by :meth:`_set_free`, which
    every mutation (alloc, free, reset) goes through: the scheduler
    reads them on every admission attempt, so reading is O(1).
    """

    def __init__(self, total: int) -> None:
        if total <= 0:
            raise ConfigError(f"allocator needs a positive size, got {total}")
        self.total = total
        self._set_free([(0, total)])

    def _set_free(self, holes: list[tuple[int, int]]) -> None:
        """Install the sorted disjoint free holes as (offset, size)
        and re-derive the free-list statistics from them."""
        self._free = holes
        self.total_free = sum(s for _, s in holes)
        self.largest_free = max((s for _, s in holes), default=0)
        #: ``1 - largest_free / total_free`` (0.0 when nothing free).
        self.fragmentation = (
            1.0 - self.largest_free / self.total_free
            if self.total_free
            else 0.0
        )

    def alloc(self, size: int) -> Extent | None:
        """Carve ``size`` bytes out of the first hole that fits."""
        if size <= 0:
            raise ConfigError(f"allocation size must be positive, got {size}")
        free = self._free
        for i, (offset, hole) in enumerate(free):
            if hole >= size:
                if hole == size:
                    del free[i]
                else:
                    free[i] = (offset + size, hole - size)
                self._set_free(free)
                return Extent(offset=offset, size=size)
        return None

    def free(self, extent: Extent) -> None:
        """Return an extent, coalescing with adjacent holes."""
        if extent.end > self.total:
            raise ConfigError(
                f"extent {extent} exceeds allocator size {self.total}"
            )
        for o, s in self._free:
            if o < extent.end and extent.offset < o + s:
                raise ConfigError(
                    f"double free: extent {extent} overlaps hole ({o},{s})"
                )
        holes = sorted(self._free + [(extent.offset, extent.size)])
        merged = [holes[0]]
        for o, s in holes[1:]:
            last_offset, last_size = merged[-1]
            if last_offset + last_size == o:
                merged[-1] = (last_offset, last_size + s)
            else:
                merged.append((o, s))
        self._set_free(merged)

    def holes(self) -> tuple[tuple[int, int], ...]:
        """Snapshot of the free list (deterministic, for journals)."""
        return tuple(self._free)

    def reset(self) -> None:
        """Forget every grant: back to one maximal hole.

        A node crash loses its MCDRAM contents wholesale — the
        simulator resets the allocator instead of freeing tenant
        extents one by one, because the extents died with the node.
        """
        self._set_free([(0, self.total)])


@dataclass(frozen=True, slots=True)
class NodeSpec:
    """One schedulable node of the fleet."""

    name: str
    machine: MachineConfig = field(default_factory=xeon_phi_7250)
    #: Real bytes of the node's fast tier this cluster may grant to
    #: tenants. Defaults to the machine's full fast-tier capacity.
    hbw_budget: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("node needs a name")
        budget = self.hbw_budget or self.machine.fast_tier.capacity
        if budget <= 0:
            raise ConfigError(f"node {self.name!r}: budget must be positive")
        if budget > self.machine.fast_tier.capacity:
            raise ConfigError(
                f"node {self.name!r}: budget {budget} exceeds fast-tier "
                f"capacity {self.machine.fast_tier.capacity}"
            )
        object.__setattr__(self, "hbw_budget", budget)


def make_fleet(
    n_nodes: int,
    hbw_budget: int,
    machine: MachineConfig | None = None,
) -> tuple[NodeSpec, ...]:
    """Homogeneous fleet of ``n_nodes`` nodes (``node00``, ...)."""
    if n_nodes < 1:
        raise ConfigError(f"fleet needs at least one node, got {n_nodes}")
    machine = machine or xeon_phi_7250()
    return tuple(
        NodeSpec(name=f"node{i:02d}", machine=machine, hbw_budget=hbw_budget)
        for i in range(n_nodes)
    )
