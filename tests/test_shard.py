"""The shard layer on the fleets that use it: the planner packs QP
groups deterministically, the merge sums counters and combines
fingerprints canonically, results do not depend on ``REPRO_JOBS``,
``REPRO_SERIAL`` or the shard count, and an armed ``Cluster.instrument``
hook collapses the plan to one in-process shard that sees every group
cluster.  The fleets are a test-size spark fleet (a Table 13 cell as
QP groups) and the tenants fleet.
"""

import dataclasses

import pytest

from repro.apps.spark.fleet import SparkFleetConfig
from repro.experiments import shard
from repro.experiments.shard import (GroupSpec, ShardPlanError,
                                     fleet_fingerprint, group_seed,
                                     plan_fleet, plan_shards, run_fleet)
from repro.service.fleet import TenantFleetConfig, tenant_groups
from repro.service.interference import scale_mix
from repro.telemetry.counters import merge_counter_items

from tests.test_service import small_mix

COLLECT = ("counters", "fingerprint")


def _group(index, num_qps=16):
    return GroupSpec(index=index, num_qps=num_qps, num_ops=64,
                     wr_base=64 * index, seed=group_seed(0, index))


def _spark(**overrides):
    """A test-size spark fleet: 128 QPs, 4 groups, budget scaled 1/16."""
    base = dict(qps=128, num_groups=4, scale=16, seed=0)
    base.update(overrides)
    return SparkFleetConfig(**base)


def _tenants(**overrides):
    """Two copies of the three-tenant mix, one cell each."""
    base = dict(tenants=scale_mix(small_mix(), 2), seed=0, num_groups=2)
    base.update(overrides)
    return TenantFleetConfig(**base)


def _surface(fleet):
    return (dataclasses.asdict(fleet.result),
            fleet.counters.identity_surface(), fleet.fingerprint)


@pytest.fixture(scope="module")
def spark_fleet():
    """One pooled run of the test-size spark fleet, shared read-only."""
    return run_fleet(_spark(), shards=2, collect=COLLECT)


class TestPlanner:
    def test_disjoint_groups_get_requested_width(self):
        groups = [_group(i) for i in range(8)]
        plan = plan_shards(groups, 4)
        assert len(plan.shards) == 4
        assert plan.pooled
        assert plan.reason == ""
        # Every group exactly once.
        flat = sorted(i for s in plan.shards for i in s)
        assert flat == list(range(8))

    def test_hazards_force_single_shard(self):
        groups = [_group(i) for i in range(4)]
        plan = plan_shards(groups, 4, hazards=["observer armed"])
        assert len(plan.shards) == 1
        assert plan.reason == "observer armed"

    def test_packing_is_deterministic_and_balanced(self):
        groups = [_group(i) for i in range(6)]
        plan_a = plan_shards(groups, 2)
        plan_b = plan_shards(list(reversed(groups)), 2)
        assert plan_a.shards == plan_b.shards
        sizes = [len(s) for s in plan_a.shards]
        assert sizes == [3, 3]

    def test_validation_errors(self):
        with pytest.raises(ShardPlanError):
            plan_shards([], 2)
        with pytest.raises(ShardPlanError):
            plan_shards([_group(0), _group(2)], 2)

    def test_fleet_groups_divisibility(self):
        mix = small_mix()
        groups = tenant_groups(_tenants())
        assert len(groups) == 2
        qps = sum(spec.num_qps for spec in mix)
        ops = sum(spec.num_ops for spec in mix)
        assert all(g.num_qps == qps and g.num_ops == ops for g in groups)
        assert groups[1].wr_base == ops
        assert (groups[1].client_lid, groups[1].server_lid) == (3, 4)
        assert groups[1].seed == group_seed(0, 1)
        with pytest.raises(ShardPlanError):
            tenant_groups(_tenants(num_groups=4))     # 6 tenants, 4 cells
        with pytest.raises(ShardPlanError):
            tenant_groups(_tenants(num_groups=0))
        with pytest.raises(ShardPlanError):
            plan_fleet(_spark(qps=130))               # 4 does not divide


class TestMergePrimitives:
    def test_counter_merge_sums_in_canonical_order(self):
        a = [(("rnic1", "tx_packets"), 5), (("rnic3", "rx_packets"), 1)]
        b = [(("rnic1", "tx_packets"), 7), (("fabric", "drops"), 2)]
        merged = merge_counter_items([b, a])  # arrival order reversed
        assert merged.get("rnic1", "tx_packets") == 12
        assert merged.get("fabric", "drops") == 2
        assert list(merged.as_dict()) == sorted(merged.as_dict())
        assert merge_counter_items([a, b]).as_dict() == merged.as_dict()

    def test_fleet_fingerprint_is_order_sensitive_and_stable(self):
        prints = ["aa", "bb", None]
        assert fleet_fingerprint(prints) == fleet_fingerprint(prints)
        assert fleet_fingerprint(["aa", "bb"]) \
            != fleet_fingerprint(["bb", "aa"])

    def test_fleet_counters_are_the_sum_of_group_counters(self,
                                                          spark_fleet):
        # Pooled groups arrive in shard order, (0, 2) then (1, 3); the
        # merge puts them back in canonical group order.
        assert [g.index for g in spark_fleet.groups] == [0, 2, 1, 3]
        expected = merge_counter_items(group.counters
                                       for group in spark_fleet.groups)
        assert spark_fleet.counters.as_dict() == expected.as_dict()
        by_index = sorted(spark_fleet.groups, key=lambda g: g.index)
        assert spark_fleet.fingerprint == fleet_fingerprint(
            [group.fingerprint for group in by_index])


class TestShardInvariance:
    def test_repro_jobs_env_does_not_change_results(self, monkeypatch,
                                                    spark_fleet):
        for jobs in ("1", "3"):
            monkeypatch.setenv("REPRO_JOBS", jobs)
            fleet = run_fleet(_spark(), shards=2, collect=COLLECT)
            assert _surface(fleet) == _surface(spark_fleet), jobs

    def test_repro_serial_forces_in_process(self, monkeypatch,
                                            spark_fleet):
        monkeypatch.setenv("REPRO_SERIAL", "1")
        fleet = run_fleet(_spark(), shards=4, collect=COLLECT)
        assert fleet.plan.pooled  # the plan still wants 4 shards...
        # ...but execution stayed in-process and results agree anyway.
        assert _surface(fleet) == _surface(spark_fleet)

    def test_completions_merge_globalises_wr_ids(self, spark_fleet):
        spans = [(g.wr_base, g.wr_base + g.num_ops)
                 for g in shard.plan_fleet(_spark())[1]]
        for group in spark_fleet.groups:
            low, high = spans[group.index]
            assert all(low < wr <= high
                       for wr, _t, _s in group.result.completions)
        merged = spark_fleet.result.completions
        assert sorted(merged) == sorted(
            c for g in spark_fleet.groups for c in g.result.completions)
        times = [t for _wr, t, _s in merged]
        assert times == sorted(times)

    def test_execution_time_is_critical_path(self):
        fleet = run_fleet(_tenants(), shards=2)
        assert fleet.result.execution_ns == max(
            g.result.execution_ns for g in fleet.groups)


class TestFleetFallbacks:
    def test_instrument_hook_forces_in_process(self):
        from repro.host.cluster import Cluster
        seen = []
        previous = Cluster.instrument
        Cluster.instrument = seen.append
        try:
            fleet = run_fleet(_tenants(), shards=2)
        finally:
            Cluster.instrument = previous
        assert not fleet.plan.pooled
        assert "Cluster.instrument" in fleet.plan.reason
        assert len(seen) == 2  # the hook really saw every group cluster

    def test_unknown_collect_flag_rejected(self):
        with pytest.raises(ValueError, match="collect"):
            run_fleet(_spark(), collect=("nonsense",))
        with pytest.raises(ValueError, match="collect"):
            run_fleet(_tenants(), collect=("capture",))

    def test_shards_zero_means_auto(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "2")
        _workload, _groups, plan = plan_fleet(_spark(shards=0))
        assert len(plan.shards) == 2
        assert plan.requested == 2


class TestChaosFallback:
    """Chaos is armed through the process-wide ``Cluster.instrument``
    hook, so the plan must collapse to one in-process shard — and the
    chaos-armed run must still be deterministic with its fault
    artifacts intact."""

    def _run_instrumented(self):
        from repro.chaos.engine import ChaosEngine
        from repro.chaos.plan import ChaosPlan, FaultKind, FaultWindow
        from repro.host.cluster import Cluster
        from repro.sim.timebase import MS

        plan = ChaosPlan([FaultWindow(0, 1000 * MS, FaultKind.DROP,
                                      probability=0.01)])
        engines = []

        def arm(cluster):
            engines.append(ChaosEngine(cluster, plan, seed=11).install())

        previous = Cluster.instrument
        Cluster.instrument = arm
        try:
            fleet = run_fleet(_spark(shards=2), collect=COLLECT)
        finally:
            Cluster.instrument = previous
        return fleet, engines

    def test_chaos_hook_forces_one_inprocess_shard(self):
        fleet, engines = self._run_instrumented()
        assert not fleet.plan.pooled
        assert len(fleet.plan.shards) == 1
        assert "Cluster.instrument" in fleet.plan.reason
        # Both ODP phases of all 4 groups were armed.
        assert len(engines) == 8

    def test_instrumented_fleet_reproduces_bit_identically(self):
        first, engines_a = self._run_instrumented()
        second, engines_b = self._run_instrumented()
        assert _surface(first) == _surface(second)
        # Fault artifacts are intact and deterministic: same drops,
        # same fingerprints, and the windows actually fired.
        prints_a = [e.fingerprint() for e in engines_a]
        assert prints_a == [e.fingerprint() for e in engines_b]
        drops_a = [e.drop_log() for e in engines_a]
        assert drops_a == [e.drop_log() for e in engines_b]
        assert any(e.stats.get("drop", 0) > 0 for e in engines_a)
        assert first.result.enable_timeouts > 0  # the faults really bit


class TestMergeValidation:
    def test_duplicate_group_indices_rejected(self, spark_fleet):
        group = spark_fleet.groups[0]
        with pytest.raises(ShardPlanError):
            shard.merge_fleet(_spark(), [group, group], spark_fleet.plan)
