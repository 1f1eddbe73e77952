"""The fleet-scale Table 13 workload: the tab13 Spark cell sharded
over QP groups must merge bit-identically at every shard count —
metrics, counters, fingerprints, the globalised completion stream —
and its group split must obey the fleet fit contract (one cold-page
budget, fitted once at fleet scale, sliced evenly).
"""

import dataclasses

import pytest

from repro.apps.spark.fleet import (SparkFleetConfig, fleet_fit,
                                    group_cold_pages, spark_groups)
from repro.experiments.shard import (ShardPlanError, group_seed,
                                     plan_fleet, run_fleet)


def _config(**overrides):
    """A test-sized fleet cell: 128 QPs, 4 groups, budget scaled 1/16."""
    base = dict(workload="SparkTC", system="Reedbush-H (2)", qps=128,
                num_groups=4, scale=16, seed=0)
    base.update(overrides)
    return SparkFleetConfig(**base)


class TestSparkGroups:
    def test_groups_split_the_cell_evenly(self):
        groups = spark_groups(_config())
        assert len(groups) == 4
        assert all(g.num_qps == 32 for g in groups)
        assert (groups[2].client_lid, groups[2].server_lid) == (5, 6)
        assert groups[2].seed == group_seed(0, 2)
        # wr spans are contiguous: group g owns [g*ops, (g+1)*ops).
        ops = groups[0].num_ops
        assert [g.wr_base for g in groups] == [g * ops for g in range(4)]

    def test_divisibility_validation(self):
        with pytest.raises(ShardPlanError):
            spark_groups(_config(qps=130))        # 4 does not divide 130
        with pytest.raises(ShardPlanError):
            spark_groups(_config(qps=132, num_groups=4))  # odd group qps
        with pytest.raises(ShardPlanError):
            spark_groups(_config(num_groups=0))

    def test_cold_budget_fits_once_and_slices_exactly(self):
        # The fit happens at fleet scale: the groups' budgets must sum
        # to the fleet's, remainder to the lowest indices — never a
        # per-group re-fit (which would multiply the flood).
        config = _config()
        _cell, total, _fetches = fleet_fit(config)
        slices = [group_cold_pages(total, 4, g) for g in range(4)]
        assert sum(slices) == total
        assert slices == sorted(slices, reverse=True)
        assert max(slices) - min(slices) <= 1

    def test_perfbench_shape_plans_alternate_groups(self):
        # The spark-fleet perfbench cell: 1280 QPs in 4 equal groups on
        # 2 shards packs heaviest-first into the lightest shard.
        config = SparkFleetConfig(qps=1280, num_groups=4, shards=2)
        _workload, groups, plan = plan_fleet(config)
        assert len(groups) == 4
        assert plan.shards == ((0, 2), (1, 3))
        assert plan.reason == ""

    def test_scale_divides_the_budget(self):
        _cell, scaled, _f = fleet_fit(_config(scale=16))
        _cell, full, _f = fleet_fit(_config(scale=1))
        assert scaled == full // 16


class TestFleetInvariance:
    """The acceptance gate: a fleet cell is bit-identical across 1/2/4
    shards on the full merge surface."""

    def test_identical_across_shard_counts(self):
        reference = None
        for shards in (1, 2, 4):
            fleet = run_fleet(_config(), shards=shards,
                              collect=("counters", "fingerprint"))
            surface = (dataclasses.asdict(fleet.result),
                       fleet.counters.identity_surface(),
                       fleet.fingerprint)
            if reference is None:
                reference = surface
            else:
                assert surface == reference, f"shards={shards} diverged"

    def test_phase_times_are_critical_paths(self):
        fleet = run_fleet(_config(), shards=2)
        runs = [group.result for group in fleet.groups]
        assert fleet.result.disable_s == max(r.disable_s for r in runs)
        assert fleet.result.enable_s == max(r.enable_s for r in runs)
        assert fleet.result.enable_packets \
            == sum(r.enable_packets for r in runs)

    def test_completions_merge_globally_ordered(self):
        fleet = run_fleet(_config(), shards=2)
        completions = fleet.result.completions
        assert completions, "the enable phase must record completions"
        times = [t for _wr, t, _s in completions]
        assert times == sorted(times)
        # wr_ids are fleet-global: every group's span is distinct
        # (group-local ids are 1-based, so group g owns
        # [g*ops + 1, (g+1)*ops]).
        ops = spark_groups(_config())[0].num_ops
        wr_ids = {wr for wr, _t, _s in completions}
        assert len(wr_ids) == len(completions)
        assert min(wr_ids) >= 1
        assert max(wr_ids) <= 4 * ops

    def test_counters_are_phase_scoped(self):
        fleet = run_fleet(_config(), shards=1, collect=("counters",))
        scopes = {scope for (scope, _name), _v
                  in fleet.counters.items()}
        assert any(s.startswith("disable:") for s in scopes)
        assert any(s.startswith("enable:") for s in scopes)
        # Fleet-global RNIC numbering: group 1's first RNIC is rnic3
        # (2 workers per cell), so both phases must mention it.
        assert "enable:rnic3" in {s.split(".")[0] for s in scopes}

    def test_capture_collection_refused(self):
        with pytest.raises(ValueError, match="capture"):
            run_fleet(_config(), shards=1, collect=("capture",))

    def test_ratio_and_render(self):
        fleet = run_fleet(_config())
        result = fleet.result
        assert result.ratio == pytest.approx(result.enable_s
                                             / result.disable_s)
        rendered = result.render()
        assert "SparkTC" in rendered and "128" in rendered


class TestEntryPoints:
    def test_run_table13_fleet_wrapper(self):
        from repro.experiments.tab13_spark import run_table13_fleet
        fleet = run_table13_fleet(qps=128, num_groups=4, shards=2,
                                  scale=16)
        direct = run_fleet(_config(), shards=2,
                           collect=("counters", "fingerprint"))
        assert fleet.fingerprint == direct.fingerprint
        assert dataclasses.asdict(fleet.result) \
            == dataclasses.asdict(direct.result)

    def test_config_replace_keeps_workload_binding(self):
        # The workload is a class attribute: replace()/pickle must not
        # detach it (workers reach the workload through the config).
        config = dataclasses.replace(_config(), shards=2)
        assert config.fleet_workload.groups is spark_groups
        import pickle
        assert pickle.loads(pickle.dumps(config)).fleet_workload \
            is SparkFleetConfig.fleet_workload


class TestLazyPayloads:
    def test_lazy_and_real_payloads_measure_the_same_cell(self,
                                                          monkeypatch):
        """Table 13 runs on lazy payloads; the same cell forced onto
        real bytes must report identical times, packets, timeouts,
        completions, counters and telemetry fingerprint."""
        from repro.ib.rnic import Rnic

        def surface():
            fleet = run_fleet(_config(), shards=1,
                              collect=("counters", "fingerprint"))
            return (dataclasses.asdict(fleet.result),
                    fleet.counters.identity_surface(), fleet.fingerprint)

        lazy = surface()
        # Every RNIC now reads ``lazy_payloads`` as False and ignores
        # the benchmark's switch: real bytes end to end.
        monkeypatch.setattr(Rnic, "lazy_payloads",
                            property(lambda self: False,
                                     lambda self, value: None),
                            raising=False)
        real = surface()
        assert lazy[0]["completions"]
        assert lazy == real
