"""Cluster simulation: determinism, budget safety, contention."""

from __future__ import annotations

import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ArrivalStream, ClusterSim, make_fleet, run_cluster
from repro.errors import ConfigError
from repro.units import MIB

#: A cheap two-app mix: one placement-churning synthetic, one Table I
#: app — enough to exercise queueing, re-advising and contention
#: without profiling the whole registry.
MIX = ("phaseshift", "minife")


def small_sim(seed=0, n_arrivals=16, n_nodes=2, budget=256 * MIB, **kw):
    return ClusterSim(
        make_fleet(n_nodes, budget),
        ArrivalStream(seed=seed, n_arrivals=n_arrivals, rate=0.2, mix=MIX),
        **kw,
    )


class BudgetCheckedSim(ClusterSim):
    """Asserts the per-node grant invariant after every event."""

    def _observe_fragmentation(self) -> None:
        for node in self.nodes:
            granted = sum(t.grant for t in node.tenants.values())
            assert granted <= node.spec.hbw_budget, (
                f"{node.name}: granted {granted} exceeds budget "
                f"{node.spec.hbw_budget}"
            )
            assert granted + node.total_free == node.spec.hbw_budget
        super()._observe_fragmentation()


class TestDeterminism:
    def test_same_seed_same_journal_in_process(self):
        fleet = make_fleet(2, 256 * MIB)
        stream = ArrivalStream(seed=7, n_arrivals=16, rate=0.2, mix=MIX)
        _, journal_a = run_cluster(fleet, stream)
        _, journal_b = run_cluster(fleet, stream)
        assert journal_a == journal_b

    def test_same_seed_byte_identical_across_processes(self, tmp_path):
        """The acceptance-criterion check: two cold processes, one
        seed, byte-identical decision journals."""
        code = (
            "import sys; from repro.cli.main import cluster_main; "
            "sys.exit(cluster_main())"
        )
        journals = []
        for name in ("a.journal", "b.journal"):
            path = tmp_path / name
            result = subprocess.run(
                [
                    sys.executable, "-c", code,
                    "--nodes", "2", "--arrivals", "20", "--seed", "11",
                    "--apps", ",".join(MIX),
                    "--journal", str(path),
                ],
                capture_output=True,
                text=True,
            )
            assert result.returncode == 0, result.stderr
            journals.append(path.read_bytes())
        assert journals[0] == journals[1]
        assert len(journals[0]) > 0

    def test_different_seeds_differ(self):
        fleet = make_fleet(2, 256 * MIB)
        _, a = run_cluster(
            fleet, ArrivalStream(seed=0, n_arrivals=12, mix=MIX)
        )
        _, b = run_cluster(
            fleet, ArrivalStream(seed=1, n_arrivals=12, mix=MIX)
        )
        assert a != b


class TestBudgetInvariant:
    @given(
        seed=st.integers(0, 2**31 - 1),
        n_nodes=st.integers(1, 3),
        budget_mib=st.sampled_from([64, 160, 320]),
        scheduler=st.sampled_from(["first-fit", "best-fit", "load-aware"]),
    )
    @settings(max_examples=15, deadline=None)
    def test_granted_hbw_never_exceeds_node_budget(
        self, seed, n_nodes, budget_mib, scheduler
    ):
        """Random arrival/departure interleavings never over-commit a
        node (checked after *every* event by the subclass)."""
        sim = BudgetCheckedSim(
            make_fleet(n_nodes, budget_mib * MIB),
            ArrivalStream(seed=seed, n_arrivals=10, rate=0.3, mix=MIX),
            scheduler=scheduler,
        )
        report = sim.run()
        # Every job was either completed or rejected; none lost.
        assert len(report.tenants) + report.n_rejected == 10


class TestContention:
    def test_colocated_fom_bounded_by_isolated_sum(self):
        report = small_sim(seed=3).run()
        assert len(report.tenants) >= 2
        assert report.aggregate_fom <= report.aggregate_fom_isolated
        # Tenants actually overlapped, so contention really bit.
        assert report.aggregate_fom < report.aggregate_fom_isolated

    def test_every_tenant_efficiency_at_most_one(self):
        report = small_sim(seed=3).run()
        for tenant in report.tenants:
            assert 0.0 < tenant.efficiency <= 1.0 + 1e-12

    def test_lone_tenant_achieves_isolated_fom(self):
        """One arrival, empty fleet: no contention, no stalls — the
        achieved FOM is exactly the isolated FOM."""
        sim = ClusterSim(
            make_fleet(1, 256 * MIB),
            ArrivalStream(seed=0, n_arrivals=1, rate=0.1, mix=MIX),
        )
        report = sim.run()
        (tenant,) = report.tenants
        assert tenant.fom_achieved == pytest.approx(tenant.fom_isolated)

    def test_fairness_within_unit_interval(self):
        for seed in range(4):
            report = small_sim(seed=seed).run()
            assert 0.0 <= report.fairness <= 1.0


class TestAdmission:
    def test_never_fitting_demand_is_rejected(self):
        sim = ClusterSim(
            make_fleet(1, 16 * MIB),
            ArrivalStream(
                seed=0, n_arrivals=4, rate=0.1, mix=MIX,
                demands=(256 * MIB,),
            ),
        )
        report = sim.run()
        assert report.n_rejected == 4
        assert not report.tenants

    def test_queued_job_admits_after_departure(self):
        """A single tight node forces queueing; the queue drains, so
        every job still completes and delays are recorded."""
        sim = ClusterSim(
            make_fleet(1, 64 * MIB),
            ArrivalStream(
                seed=2, n_arrivals=8, rate=1.0, mix=MIX,
                demands=(64 * MIB,),
            ),
        )
        report = sim.run()
        assert len(report.tenants) == 8
        assert report.mean_queueing_delay > 0.0
        assert any("queue job=" in line for line in sim.journal)
        assert any("dequeue job=" in line for line in sim.journal)

    def test_partial_grant_then_readvise_on_departure(self):
        """Grants below demand expand into freed HBW, and promoted
        bytes are charged as migration."""
        sim = ClusterSim(
            make_fleet(1, 320 * MIB),
            ArrivalStream(
                seed=1, n_arrivals=10, rate=0.5, mix=MIX,
                demands=(128 * MIB, 256 * MIB),
            ),
        )
        report = sim.run()
        partial = [
            t for t in report.tenants if t.hbw_granted < t.hbw_demand
        ]
        assert partial, "scenario should produce partial grants"
        assert any("readvise job=" in line for line in sim.journal)
        assert report.migrated_bytes > 0

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ConfigError, match="unknown scheduler"):
            small_sim(scheduler="round-robin")

    def test_duplicate_node_names_rejected(self):
        from repro.cluster.node import NodeSpec

        nodes = (NodeSpec(name="n"), NodeSpec(name="n"))
        with pytest.raises(ConfigError, match="duplicate node names"):
            ClusterSim(nodes, ArrivalStream(seed=0, n_arrivals=1, mix=MIX))


class TestSchedulers:
    def test_load_aware_spreads_tenants(self):
        """Simultaneously-resident jobs land on distinct nodes while
        any fitting node is empty."""
        sim = small_sim(seed=5, n_nodes=3, scheduler="load-aware")
        report = sim.run()
        nodes_used = {t.node for t in report.tenants}
        assert len(nodes_used) == 3

    def test_first_fit_prefers_declaration_order(self):
        sim = small_sim(seed=5, n_nodes=3, scheduler="first-fit")
        report = sim.run()
        first = min(report.tenants, key=lambda t: t.admission_time)
        assert first.node == "node00"


class TestPolicyContract:
    """A policy returns None or an offered node whose largest hole
    clears the bar; the simulator refuses anything else instead of
    carving a grant the request never accepted."""

    def test_hole_below_the_bar_is_refused(self):
        def always_first(nodes, bar):
            return nodes[0]

        sim = small_sim(seed=5, n_arrivals=24, scheduler=always_first)
        with pytest.raises(ConfigError, match="broke its contract"):
            sim.run()

    def test_node_that_is_not_up_is_refused(self):
        sim = small_sim(seed=5)
        draining = sim.nodes[0]
        draining.status = "draining"
        sim.scheduler = lambda nodes, bar: draining
        with pytest.raises(ConfigError, match="not an offered node"):
            sim.run()

    def test_contract_abiding_user_callable_runs(self):
        def last_fit(nodes, bar):
            fits = [n for n in nodes if n.largest_free >= bar]
            return fits[-1] if fits else None

        report = small_sim(seed=5, scheduler=last_fit).run()
        assert report.accounted
