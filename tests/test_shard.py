"""Shard-parallel fleet execution must be invisible: QP groups own
disjoint LID pairs by construction, and the deterministic merge
returns bit-identical results — metrics, counters, telemetry
fingerprints, capture rows — for every shard count and every
``REPRO_JOBS`` value.
"""

import dataclasses

import pytest

from repro.bench.microbench import (MicrobenchConfig, OdpSetup,
                                    run_microbench)
from repro.experiments import shard
from repro.experiments.shard import (GroupSpec, ShardPlanError,
                                     fleet_fingerprint, fleet_groups,
                                     group_seed, plan_shards, run_fleet)
from repro.telemetry.counters import merge_counter_items


def _group(index, num_qps=16):
    return GroupSpec(index=index, num_qps=num_qps, num_ops=64,
                     wr_base=64 * index, seed=group_seed(0, index))


def _flood_config(**overrides):
    """A small fig09-shaped window-1 client-ODP flood fleet."""
    base = dict(size=400, num_ops=256, num_qps=64, interval_us=0.0,
                odp=OdpSetup.CLIENT, integrity=False, seed=50,
                max_rd_atomic=1, coalesce=True,
                num_groups=4)
    base.update(overrides)
    return MicrobenchConfig(**base)


def _damming_config(**overrides):
    """A small fig04-shaped run: server-side ODP, paced posts."""
    base = dict(size=400, num_ops=64, num_qps=8, interval_us=100.0,
                odp=OdpSetup.SERVER, integrity=False, seed=7,
                num_groups=2)
    base.update(overrides)
    return MicrobenchConfig(**base)


def _metrics(result):
    d = dataclasses.asdict(result)
    d.pop("config")
    d.pop("coalesced_rounds")
    d.pop("events_coalesced")
    return d


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
        groups = fleet_groups(_flood_config(num_qps=64, num_ops=256,
                                            num_groups=4))
        assert len(groups) == 4
        assert all(g.num_qps == 16 and g.num_ops == 64 for g in groups)
        assert groups[2].wr_base == 128
        assert (groups[2].client_lid, groups[2].server_lid) == (5, 6)
        assert groups[2].seed == group_seed(50, 2)
        with pytest.raises(ShardPlanError):
            fleet_groups(_flood_config(num_qps=64, num_groups=3))
        with pytest.raises(ShardPlanError):
            fleet_groups(_flood_config(num_ops=255, num_groups=4))


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

    def test_merge_capture_summaries(self):
        from repro.capture.analyze import (CaptureSummary, DammingReport,
                                           FloodReport, merge_summaries)
        a = CaptureSummary(total_packets=10, dropped=0, first_ns=100,
                           last_ns=900, by_opcode={"READ_REQ": 10},
                           retransmissions=4,
                           damming=DammingReport(True, 500, 3, 120),
                           flood=FloodReport(True, 10, 4, 9, 2))
        b = CaptureSummary(total_packets=6, dropped=1, first_ns=50,
                           last_ns=700, by_opcode={"READ_REQ": 4,
                                                   "ACK": 2},
                           damming=DammingReport(False),
                           flood=FloodReport(False, 6, 0, 2, 0))
        merged = merge_summaries([a, b])
        assert merged.total_packets == 16
        assert merged.dropped == 1
        assert (merged.first_ns, merged.last_ns) == (50, 900)
        assert merged.by_opcode == {"ACK": 2, "READ_REQ": 14}
        assert merged.retransmissions == 4
        assert merged.damming.detected and merged.damming.stall_ns == 500
        assert merged.flood.detected
        assert merged.flood.max_psn_repeats == 9
        assert merged.flood.qps_involved == 2
        # Arrival order must not matter.
        assert dataclasses.asdict(merge_summaries([b, a])) \
            == dataclasses.asdict(merged)

    def test_merge_summaries_empty(self):
        from repro.capture.analyze import merge_summaries
        merged = merge_summaries([])
        assert merged.total_packets == 0
        assert not merged.damming.detected


class TestShardInvariance:
    """The acceptance gate: seeded fleet runs bit-identical across
    1/2/8 shards, with counters/fingerprints/capture rows surviving
    the merge unchanged."""

    def test_flood_fleet_identical_across_shard_counts(self):
        reference = None
        for shards in (1, 2, 8):
            fleet = run_fleet(_flood_config(shards=shards),
                              collect=("counters", "fingerprint",
                                       "capture", "records"))
            surface = (
                _metrics(fleet.result),
                fleet.counters.identity_surface(),
                fleet.fingerprint,
                [dataclasses.astuple(r) for r in fleet.records],
                dataclasses.asdict(fleet.capture),
            )
            if reference is None:
                reference = surface
            else:
                assert surface == reference, f"shards={shards} diverged"

    def test_damming_fleet_identical_across_shard_counts(self):
        reference = None
        for shards in (1, 2):
            fleet = run_fleet(_damming_config(shards=shards),
                              collect=("counters", "fingerprint"))
            surface = (_metrics(fleet.result),
                       fleet.counters.identity_surface(),
                       fleet.fingerprint)
            if reference is None:
                reference = surface
            else:
                assert surface == reference

    def test_object_mode_fleet_identical(self):
        cfg = _flood_config(coalesce=False, num_qps=32, num_ops=128,
                            num_groups=2)
        serial = run_fleet(dataclasses.replace(cfg, shards=1))
        pooled = run_fleet(dataclasses.replace(cfg, shards=2))
        assert _metrics(serial.result) == _metrics(pooled.result)

    def test_repro_jobs_env_does_not_change_results(self, monkeypatch):
        cfg = _flood_config()
        walls = {}
        for jobs in ("1", "3"):
            monkeypatch.setenv("REPRO_JOBS", jobs)
            walls[jobs] = _metrics(run_fleet(
                dataclasses.replace(cfg, shards=2)).result)
        assert walls["1"] == walls["3"]

    def test_repro_serial_forces_in_process(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERIAL", "1")
        fleet = run_fleet(_flood_config(shards=4))
        assert fleet.plan.pooled  # the plan still wants 4 shards...
        monkeypatch.delenv("REPRO_SERIAL")
        bare = run_fleet(_flood_config(shards=4))
        # ...but execution stayed in-process and results agree anyway.
        assert _metrics(fleet.result) == _metrics(bare.result)

    def test_completions_merge_globalises_wr_ids(self):
        fleet = run_fleet(_flood_config(shards=2))
        wr_ids = sorted(wr for wr, _t, _s in fleet.result.completions)
        assert wr_ids == list(range(256))
        times = [t for _wr, t, _s in fleet.result.completions]
        assert times == sorted(times)

    def test_execution_time_is_critical_path(self):
        fleet = run_fleet(_flood_config(shards=2))
        assert fleet.result.execution_time_ns == max(
            g.result.execution_time_ns for g in fleet.groups)


class TestFleetFallbacks:
    def test_instrument_hook_forces_in_process(self):
        from repro.host.cluster import Cluster
        seen = []
        previous = Cluster.instrument
        Cluster.instrument = seen.append
        try:
            fleet = run_fleet(_flood_config(num_qps=16, num_ops=64,
                                            num_groups=2, shards=2))
        finally:
            Cluster.instrument = previous
        assert not fleet.plan.pooled
        assert "Cluster.instrument" in fleet.plan.reason
        assert len(seen) == 2  # the hook really saw every group cluster

    def test_telemetry_session_forces_in_process_and_attaches(self):
        from repro.telemetry import Telemetry
        tel = Telemetry()
        cfg = _flood_config(num_qps=16, num_ops=64, num_groups=2,
                            shards=2, telemetry=tel)
        fleet = run_fleet(cfg)
        assert not fleet.plan.pooled
        assert "telemetry" in fleet.plan.reason
        assert len(tel.clusters) == 2
        assert tel.counters().get("fabric", "switch_forwarded") > 0

    def test_run_microbench_delegates_fleet_configs(self):
        cfg = _flood_config(shards=2)
        direct = run_fleet(cfg).result
        via_microbench = run_microbench(cfg)
        assert _metrics(direct) == _metrics(via_microbench)

    def test_on_cluster_refused_for_fleets(self):
        with pytest.raises(ValueError, match="on_cluster"):
            run_microbench(_flood_config(shards=2),
                           on_cluster=lambda c: None)

    def test_unknown_collect_flag_rejected(self):
        with pytest.raises(ValueError, match="collect"):
            run_fleet(_flood_config(), collect=("nonsense",))

    def test_shards_zero_means_auto(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "2")
        fleet = run_fleet(_flood_config(shards=0))
        assert len(fleet.plan.shards) == 2
        assert fleet.plan.requested == 2


class TestChaosTelemetryFallback:
    """Satellite: telemetry AND chaos armed at once.  Both are
    process-wide observers, so the plan must collapse to one in-process
    shard naming both hazards — and the instrumented run must still be
    deterministic with its fault artifacts intact."""

    def _run_instrumented(self):
        from repro.chaos.engine import ChaosEngine
        from repro.chaos.plan import ChaosPlan, FaultKind, FaultWindow
        from repro.host.cluster import Cluster
        from repro.sim.timebase import MS
        from repro.telemetry import Telemetry

        plan = ChaosPlan([FaultWindow(0, 5 * MS, FaultKind.DROP,
                                      probability=0.3)])
        engines = []

        def arm(cluster):
            engines.append(ChaosEngine(cluster, plan, seed=11).install())

        tel = Telemetry()
        previous = Cluster.instrument
        Cluster.instrument = arm
        try:
            fleet = run_fleet(_flood_config(num_qps=16, num_ops=64,
                                            num_groups=2, shards=2,
                                            telemetry=tel))
        finally:
            Cluster.instrument = previous
        return fleet, engines, tel

    def test_both_hazards_force_one_inprocess_shard(self):
        fleet, engines, tel = self._run_instrumented()
        assert not fleet.plan.pooled
        assert len(fleet.plan.shards) == 1
        assert "Cluster.instrument" in fleet.plan.reason
        assert "telemetry" in fleet.plan.reason
        # Both observers really saw every group cluster.
        assert len(engines) == 2
        assert len(tel.clusters) == 2

    def test_instrumented_fleet_reproduces_bit_identically(self):
        first, engines_a, _tel = self._run_instrumented()
        second, engines_b, _tel = self._run_instrumented()
        assert _metrics(first.result) == _metrics(second.result)
        # Fault artifacts are intact and deterministic: same drops,
        # same fingerprints, and the windows actually fired.
        prints_a = [e.fingerprint() for e in engines_a]
        prints_b = [e.fingerprint() for e in engines_b]
        assert prints_a == prints_b
        drops_a = [e.drop_log() for e in engines_a]
        assert drops_a == [e.drop_log() for e in engines_b]
        assert any(e.stats.get("drop", 0) > 0 for e in engines_a)
        assert first.result.timeouts > 0  # the faults really bit


class TestMergeValidation:
    def test_duplicate_group_indices_rejected(self):
        fleet = run_fleet(_flood_config(num_groups=2, shards=1))
        with pytest.raises(ShardPlanError):
            shard.merge_results(_flood_config(),
                                [fleet.groups[0], fleet.groups[0]])
