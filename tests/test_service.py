"""Tests for the multi-tenant RDMA service tier (repro.service).

Covers the frozen tenant config models, the seeded arrival generators,
shared-RNIC cell execution, the ``tenant.<name>.`` counter key schema,
the interference matrix (exhibit + containment, with its run
fingerprints pinned literally at seed 0), fleet sharding bit-identity,
and tenant-scoped chaos windows.  Cross-shard / cross-repeat equality
protects the merge and relabel plumbing; the literal pins catch any
change to what the matrix simulates.
"""

import dataclasses
import json
import random

import pytest

from repro.chaos.plan import ChaosPlan, FaultKind, FaultWindow
from repro.service import (ArrivalSpec, ServiceCellConfig, TenantRegistry,
                           TenantSpec, run_cell, run_tenant_matrix,
                           tenant_seed)
from repro.service.arrivals import arrival_times, mean_gap_ns
from repro.sim.timebase import MS, SEC
from repro.telemetry.counters import merge_counter_items


def small_mix():
    """A cheap three-tenant cell: one of each workload and MR mode."""
    return (
        TenantSpec(name="kv-a", workload="kv", mr_mode="pinned",
                   arrival=ArrivalSpec(process="deterministic",
                                       rate_per_s=100_000.0),
                   num_qps=2, num_ops=12, size=256, fanout=2),
        TenantSpec(name="mpi-b", workload="collective",
                   mr_mode="odp-explicit",
                   arrival=ArrivalSpec(process="poisson",
                                       rate_per_s=50_000.0),
                   num_qps=2, num_ops=8, size=512),
        TenantSpec(name="shuf-c", workload="shuffle",
                   mr_mode="odp-implicit",
                   arrival=ArrivalSpec(process="bursty",
                                       rate_per_s=50_000.0),
                   num_qps=2, num_ops=8, size=256),
    )


class TestTenantSpec:
    def test_dotted_name_rejected(self):
        # dots would break the tenant.<name>.rnicN counter-scope grammar
        with pytest.raises(ValueError, match="tenant name"):
            TenantSpec(name="team.a")

    @pytest.mark.parametrize("field,value", [
        ("workload", "database"),
        ("mr_mode", "odp"),
        ("mitigation", "dynamicpin"),
        ("num_qps", 0),
        ("num_ops", 0),
        ("fanout", 0),
        ("large_fraction", 1.5),
    ])
    def test_invalid_field_rejected(self, field, value):
        with pytest.raises(ValueError):
            TenantSpec(name="t", **{field: value})

    def test_arrival_validation(self):
        with pytest.raises(ValueError):
            ArrivalSpec(process="weibull")
        with pytest.raises(ValueError):
            ArrivalSpec(rate_per_s=0)
        # bursty: burst_factor * burst_fraction must stay < 1 so the
        # derived off-state rate is positive
        with pytest.raises(ValueError):
            ArrivalSpec(process="bursty", burst_factor=4.0,
                        burst_fraction=0.3)

    def test_specs_frozen_and_hashable(self):
        spec = TenantSpec(name="t")
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.num_ops = 1
        assert spec == TenantSpec(name="t")
        assert len({spec, TenantSpec(name="t"),
                    TenantSpec(name="u")}) == 2

    def test_registry_rejects_duplicate_names(self):
        reg = TenantRegistry((TenantSpec(name="t"),))
        with pytest.raises(ValueError, match="duplicate"):
            reg.add(TenantSpec(name="t", workload="shuffle"))

    def test_registry_order_and_replace_all(self):
        reg = TenantRegistry(small_mix())
        assert reg.names() == ["kv-a", "mpi-b", "shuf-c"]
        forced = reg.replace_all(mitigation="selective-retransmit")
        assert all(s.mitigation == "selective-retransmit" for s in forced)
        assert reg.get("kv-a").mitigation == "none"  # original untouched

    def test_tenant_seed_is_name_crc_not_builtin_hash(self):
        # crc32 mixing: process-stable and order-independent, unlike
        # the salted builtin hash
        import zlib
        assert tenant_seed(3, "kv-a") \
            == 3 * 7_368_787 + zlib.crc32(b"kv-a")
        assert tenant_seed(3, "kv-a") != tenant_seed(3, "kv-b")


class TestArrivals:
    def test_deterministic_is_evenly_spaced(self):
        spec = ArrivalSpec(process="deterministic", rate_per_s=1e6)
        times = arrival_times(spec, 5, random.Random(0))
        assert times == [0, 1000, 2000, 3000, 4000]

    @pytest.mark.parametrize("process", ["deterministic", "poisson",
                                         "bursty"])
    def test_nondecreasing_and_reproducible(self, process):
        spec = ArrivalSpec(process=process, rate_per_s=200_000.0)
        a = arrival_times(spec, 200, random.Random(7))
        b = arrival_times(spec, 200, random.Random(7))
        assert a == b
        assert all(y >= x for x, y in zip(a, a[1:]))
        assert a[0] == 0
        assert arrival_times(spec, 0, random.Random(7)) == []

    @pytest.mark.parametrize("process", ["poisson", "bursty"])
    def test_long_run_rate_is_preserved(self, process):
        # the MMPP off-state rate is derived so the long-run mean stays
        # rate_per_s; check the empirical mean gap within 15%
        spec = ArrivalSpec(process=process, rate_per_s=100_000.0)
        times = arrival_times(spec, 4000, random.Random(11))
        empirical_gap = times[-1] / (len(times) - 1)
        assert empirical_gap == pytest.approx(mean_gap_ns(spec), rel=0.15)


class TestServiceCell:
    @pytest.fixture(scope="class")
    def cell(self):
        return run_cell(ServiceCellConfig(tenants=small_mix(), seed=0))

    def test_every_tenant_completes_every_op(self, cell):
        assert set(cell.tenants) == {"kv-a", "mpi-b", "shuf-c"}
        for spec in small_mix():
            tenant = cell.tenants[spec.name]
            assert tenant.ops == spec.num_ops
            assert tenant.errors == 0
            assert len(tenant.intervals) == spec.num_ops
            assert tenant.p50_ns <= tenant.p99_ns <= tenant.p999_ns

    def test_qp_ownership_covers_both_ends(self, cell):
        owners = set(cell.qp_owner.values())
        assert owners == {"kv-a", "mpi-b", "shuf-c"}
        lids = {lid for lid, _qpn in cell.qp_owner}
        assert lids == {1, 2}  # client and server end of every QP

    def test_cell_runs_are_bit_identical(self, cell):
        again = run_cell(ServiceCellConfig(tenants=small_mix(), seed=0))
        assert again.fingerprint == cell.fingerprint
        assert again.counters == cell.counters

    def test_seed_changes_the_run(self, cell):
        other = run_cell(ServiceCellConfig(tenants=small_mix(), seed=1))
        assert other.fingerprint != cell.fingerprint


class TestTenantCounterSchema:
    """The ``tenant.<name>.`` key-schema regression tests."""

    @pytest.fixture(scope="class")
    def cell(self):
        return run_cell(ServiceCellConfig(tenants=small_mix(), seed=0))

    def test_per_qp_scopes_carry_the_tenant_prefix(self, cell):
        names = {spec.name for spec in small_mix()}
        qp_scopes = [scope for (scope, _n), _v in cell.counters
                     if ".qp" in scope]
        assert qp_scopes, "no per-QP counters harvested"
        for scope in qp_scopes:
            # grammar: tenant.<name>.rnicN.qpM — the RNIC segment is
            # everything from the last ".rnic" on; names are dot-free
            assert scope.startswith("tenant."), scope
            prefix, _sep, rnic = scope.rpartition(".rnic")
            tenant = prefix[len("tenant."):]
            assert tenant in names, scope
            lid, _sep, qp = rnic.partition(".qp")
            assert lid.isdigit() and qp.isdigit(), scope

    def test_rnic_rollups_stay_whole_device(self, cell):
        # per-RNIC rollups are not split per tenant
        scopes = {scope for (scope, _n), _v in cell.counters}
        assert "rnic1" in scopes and "rnic2" in scopes
        assert "fabric" in scopes

    def test_ud_qps_harvest_ud_counters_under_the_tenant(self, cell):
        # the kv tenant's UD connection-setup pair shows up as ud.*
        # counters inside its tenant scope
        ud = {(scope, name): value for (scope, name), value
              in cell.counters if name.startswith("ud.")}
        assert ud, "no UD counters harvested"
        assert all(scope.startswith("tenant.kv-a.") for scope, _ in ud)
        sends = sum(v for (s, n), v in ud.items() if n == "ud.sends")
        recvs = sum(v for (s, n), v in ud.items() if n == "ud.receives")
        assert sends >= 2 and recvs >= 2  # the two-way handshake

    def test_identity_surface_rule_is_name_prefix_only(self, cell):
        # exec.* names are excluded from the identity surface whatever
        # their scope — tenant scopes never affect identity membership
        reg = merge_counter_items([cell.counters])
        surface = reg.identity_surface()
        assert surface, "empty identity surface"
        assert not any(".exec." in key or key.startswith("exec.")
                       for key in surface)
        full = reg.as_dict()
        dropped = set(full) - set(surface)
        assert dropped, "no exec.* counters were excluded"
        tenant_exec = [key for key in dropped if key.startswith("tenant.")]
        assert tenant_exec, "tenant-scoped exec.* counters must be " \
                            "excluded exactly like bare ones"


class TestInterferenceMatrix:
    @pytest.fixture(scope="class")
    def report(self):
        return run_tenant_matrix(seed=0, fast=True)

    def test_exhibit_aggressor_owns_episodes_unmitigated(self, report):
        none_run = report.runs["none"]
        assert len(none_run.damming) + len(none_run.flood) >= 1
        assert report.aggressor_stall_ns("none") > 0
        # attribution names the aggressor as the owner of the stall
        assert any("flood-odp" in row
                   for row in none_run.attribution.values())
        assert report.as_dict()["runs"]["none"]["attribution_ms"]

    def test_fingerprints_pinned(self, report):
        assert {run: result.fingerprint
                for run, result in report.runs.items()} == {
            "solo": "43ede704a392164a05dbdb72571328169900e5a9"
                    "86a029be4c11acf43ce327c3",
            "none": "a41446538ed52aa1161bab83b1207f5da2617133"
                    "adc9760a008a4d6205f71d83",
            "mitigated": "04b0112a37663dcdf21691a91478793d5101b8c5"
                         "e4e43b2b7e30c4d16fe82d3c",
        }

    def test_cell_runs_the_storm_coalescer(self, report):
        # The cell keeps the device's coalescing default: every run
        # offers the coalescer rounds (absorbed or declined), and the
        # unmitigated flood has rounds it absorbs.
        def tally(run, names):
            return sum(value for (_scope, name), value
                       in report.runs[run].counters
                       if name in names)

        tallies = ("exec.coalesce.blind_rounds",
                   "exec.coalesce.joint_rounds",
                   "exec.coalesce.declined_rounds")
        for run in report.runs:
            assert tally(run, tallies) > 0, run
        assert tally("none", tallies[:2]) > 0

    def test_victims_degrade_under_sharing(self, report):
        for victim in report.victims:
            assert report.degradation(victim) > 1.0, victim

    def test_containment_per_tenant_strategy(self, report):
        # the bench gate's verdict: episodes absent under the
        # aggressor's own dynamic-pin, or stall cut >= 2x
        assert report.contained()
        assert report.aggressor_stall_ns("mitigated") \
            <= report.aggressor_stall_ns("none") // 2

    def test_solo_run_has_no_aggressor(self, report):
        assert "flood-odp" not in report.runs["solo"].tenants
        assert "flood-odp" in report.runs["none"].tenants

    def test_report_renders_and_serializes(self, report):
        text = report.render()
        assert "CONTAINED" in text and "NOT CONTAINED" not in text
        assert "attribution:" in text
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["contained"] is True
        assert payload["aggressors"] == ["flood-odp"]


class TestTenantFleet:
    def fleet(self, shards, monkeypatch=None, serial=False):
        from repro.experiments.shard import run_fleet
        from repro.service.fleet import TenantFleetConfig
        from repro.service.interference import scale_mix
        if monkeypatch is not None:
            if serial:
                monkeypatch.setenv("REPRO_SERIAL", "1")
            else:
                monkeypatch.delenv("REPRO_SERIAL", raising=False)
        config = TenantFleetConfig(tenants=scale_mix(small_mix(), 2),
                                   seed=0, num_groups=2, cell_size=3)
        return run_fleet(config, shards=shards,
                         collect=("counters", "fingerprint"))

    def test_bit_identical_across_shard_counts(self, monkeypatch):
        one = self.fleet(1, monkeypatch)
        two = self.fleet(2, monkeypatch)
        four = self.fleet(4, monkeypatch)
        assert one.result.fingerprint == two.result.fingerprint \
            == four.result.fingerprint
        assert one.result.counters == two.result.counters \
            == four.result.counters
        assert set(one.result.tenants) \
            == {f"{s.name}-c{c:04d}" for s in small_mix() for c in (0, 1)}

    def test_bit_identical_under_repro_serial(self, monkeypatch):
        pooled = self.fleet(2, monkeypatch)
        serial = self.fleet(2, monkeypatch, serial=True)
        assert pooled.result.fingerprint == serial.result.fingerprint
        assert pooled.result.counters == serial.result.counters

    def test_counters_relabelled_to_fleet_lids(self, monkeypatch):
        two = self.fleet(2, monkeypatch)
        scopes = {scope for (scope, _n), _v in two.result.counters}
        # group 0 keeps rnic1/rnic2; group 1 relabels to rnic3/rnic4,
        # including inside tenant-prefixed per-QP scopes
        assert any(s.startswith("rnic3") or s.startswith("rnic4")
                   for s in scopes)
        assert any(s.startswith("tenant.") and ".rnic3." in s + "."
                   for s in scopes) or any(".rnic3.qp" in s for s in scopes)

    def test_matrix_fleet_contained_and_shard_identical(self,
                                                        monkeypatch):
        monkeypatch.delenv("REPRO_SERIAL", raising=False)
        one = run_tenant_matrix(seed=0, fast=True, copies=2, shards=1)
        two = run_tenant_matrix(seed=0, fast=True, copies=2, shards=2)
        assert one.contained()
        for run in one.runs:
            assert one.runs[run].fingerprint == two.runs[run].fingerprint
            assert one.runs[run].counters == two.runs[run].counters

    def test_fleet_rejects_duplicate_tenant_names(self):
        from repro.service.fleet import TenantFleetConfig, tenant_groups
        config = TenantFleetConfig(tenants=small_mix() + small_mix(),
                                   seed=0, num_groups=2, cell_size=3)
        with pytest.raises(ValueError):
            tenant_groups(config)


class TestTenantScopedChaos:
    def chaos_cell(self, plan, seed=0, chaos_seed=3):
        return run_cell(ServiceCellConfig(tenants=small_mix(), seed=seed,
                                          chaos_plan=plan,
                                          chaos_seed=chaos_seed))

    def drop_plan(self, tenant="mpi-b"):
        return ChaosPlan([FaultWindow(0, 5 * MS, FaultKind.DROP,
                                      probability=0.5, tenant=tenant)])

    def retransmits(self, cell, tenant):
        return sum(value for (scope, name), value in cell.counters
                   if scope.startswith(f"tenant.{tenant}.")
                   and name == "req_retransmitted_packets")

    def test_fixed_plan_is_deterministic(self):
        a = self.chaos_cell(self.drop_plan())
        b = self.chaos_cell(self.drop_plan())
        assert a.fingerprint == b.fingerprint
        assert a.counters == b.counters

    def test_faults_hit_only_the_scoped_tenant(self):
        from repro.host.cluster import Cluster
        baseline = run_cell(ServiceCellConfig(tenants=small_mix(), seed=0))
        clusters = []
        original = Cluster.instrument
        Cluster.instrument = clusters.append
        try:
            faulted = self.chaos_cell(self.drop_plan("mpi-b"))
        finally:
            Cluster.instrument = original
        # the scoped tenant pays in retransmissions; the pinned
        # bystander (no ODP coupling through the status engine) is
        # untouched counter for counter
        assert self.retransmits(faulted, "mpi-b") \
            > self.retransmits(baseline, "mpi-b")
        assert self.retransmits(faulted, "kv-a") \
            == self.retransmits(baseline, "kv-a")
        # every injected drop names one of the scoped tenant's QPs on
        # either end — no fault ever touched a bystander packet
        cluster, = clusters
        scope = cluster.tenant_scopes["mpi-b"]
        engine = cluster.network.chaos
        drops = [entry for entry in engine.log if entry[1] == "drop"]
        assert drops, "the window injected no drops"
        for _time, _action, src_lid, dst_lid, src_qpn, dst_qpn, *_ in drops:
            assert scope.covers_qp(src_lid, src_qpn) \
                or scope.covers_qp(dst_lid, dst_qpn)

    def test_unknown_tenant_fails_loudly(self):
        plan = self.drop_plan("nobody")
        with pytest.raises(KeyError, match="unknown tenant"):
            self.chaos_cell(plan)

    def test_eviction_storm_scoped_to_tenant_pages(self):
        plan = ChaosPlan([FaultWindow(0, 4 * MS, FaultKind.EVICTION_STORM,
                                      tenant="shuf-c", pages=2,
                                      period_ns=500_000)])
        a = self.chaos_cell(plan)
        b = self.chaos_cell(plan)
        assert a.fingerprint == b.fingerprint
        evictions = sum(v for (s, n), v in a.counters
                        if s == "chaos" and n == "evict")
        assert evictions > 0  # the tenant's ODP pages were evictable
