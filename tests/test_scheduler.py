"""The two-level scheduler must be invisible: any mix of grid points
and sharded fleets, any pool width, any completion order — results
equal the serial loop's bit for bit.  Only wall-clock may move.
"""

import dataclasses

from repro.bench.microbench import MicrobenchConfig, OdpSetup, run_microbench
from repro.experiments.scheduler import (FleetTask, PointTask, fleet_widths,
                                         run_schedule)


def _square(point):
    return point * point


def _fleet_config(**overrides):
    """A small sharded flood fleet (fig09-shaped)."""
    base = dict(size=400, num_ops=256, num_qps=64, interval_us=0.0,
                odp=OdpSetup.CLIENT, integrity=False, seed=50,
                max_rd_atomic=1, coalesce=True,
                num_groups=4)
    base.update(overrides)
    return MicrobenchConfig(**base)


def _metrics(result):
    d = dataclasses.asdict(result)
    d.pop("config")
    d.pop("coalesced_rounds")
    d.pop("events_coalesced")
    return d


class TestFleetWidths:
    """Idle workers deal round-robin to the fleets, heaviest first;
    explicit ``shards`` pins outright."""

    def test_spare_workers_deal_heaviest_first(self):
        tasks = [PointTask(_square, 1, weight=1.0),
                 FleetTask(_fleet_config(), weight=2.0),
                 PointTask(_square, 2, weight=1.0),
                 FleetTask(_fleet_config(), weight=5.0)]
        # 8 jobs, 4 tasks -> 4 spare slots: fleet 3 (heavier) gets the
        # 1st and 3rd deal, fleet 1 the 2nd and 4th.
        assert fleet_widths(tasks, 8) == {1: 3, 3: 3}

    def test_no_spare_means_width_one(self):
        tasks = [PointTask(_square, p) for p in range(3)]
        tasks.append(FleetTask(_fleet_config()))
        assert fleet_widths(tasks, 4) == {3: 1}
        assert fleet_widths(tasks, 2) == {3: 1}

    def test_explicit_shards_pin(self):
        tasks = [FleetTask(_fleet_config(), shards=2),
                 FleetTask(_fleet_config())]
        widths = fleet_widths(tasks, 8)
        assert widths[0] == 2          # pinned, gets no deals
        assert widths[1] == 1 + 6      # all spare slots

    def test_weight_ties_break_on_task_order(self):
        tasks = [FleetTask(_fleet_config(), weight=1.0),
                 FleetTask(_fleet_config(), weight=1.0)]
        assert fleet_widths(tasks, 3) == {0: 2, 1: 1}

    def test_no_fleets_no_widths(self):
        assert fleet_widths([PointTask(_square, 1)], 8) == {}


class TestScheduleEqualsSerial:
    """The acceptance gate: mixed schedules, parallel vs serial."""

    def test_points_only_preserve_order(self):
        tasks = [PointTask(_square, p) for p in range(12)]
        serial = run_schedule(tasks, processes=1)
        parallel = run_schedule(tasks, processes=4)
        assert serial == parallel == [p * p for p in range(12)]

    def test_mixed_points_and_fleet_bit_identical(self):
        cfg = _fleet_config(num_qps=32, num_ops=128, num_groups=2)
        tasks = [PointTask(_square, 3, weight=1.0),
                 FleetTask(cfg, weight=8.0),
                 PointTask(_square, 7, weight=1.0)]
        serial = run_schedule(tasks, processes=1)
        parallel = run_schedule(tasks, processes=4)
        assert serial[0] == parallel[0] == 9
        assert serial[2] == parallel[2] == 49
        assert _metrics(serial[1].result) == _metrics(parallel[1].result)
        # And both equal the fleet run outside any schedule.
        direct = run_microbench(cfg)
        assert _metrics(parallel[1].result) == _metrics(direct)

    def test_fleet_sharded_across_idle_workers(self):
        # The mixed case the ISSUE names: one big fleet next to small
        # points, spare workers shard the fleet.
        cfg = _fleet_config()
        tasks = [FleetTask(cfg, weight=10.0),
                 PointTask(_square, 2, weight=1.0)]
        results = run_schedule(tasks, processes=6)
        fleet = results[0]
        assert len(fleet.plan.shards) > 1   # it really fanned out
        serial = run_schedule(tasks, processes=1)
        assert _metrics(fleet.result) == _metrics(serial[0].result)

    def test_repro_serial_env_forces_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERIAL", "1")
        tasks = [PointTask(_square, p) for p in range(4)]
        assert run_schedule(tasks, processes=4) == [0, 1, 4, 9]

    def test_empty_schedule(self):
        assert run_schedule([], processes=4) == []


class TestScheduleMechanics:
    def test_post_maps_fleet_result_in_parent(self):
        cfg = _fleet_config(num_qps=32, num_ops=128, num_groups=2)
        tasks = [FleetTask(cfg, post=lambda fleet:
                           ("wrapped", fleet.result.total_packets))]
        for processes in (1, 3):
            tag, packets = run_schedule(tasks, processes=processes)[0]
            assert tag == "wrapped"
            assert packets == run_microbench(cfg).total_packets

    def test_progress_counts_every_unit(self):
        cfg = _fleet_config(num_qps=32, num_ops=128, num_groups=2)
        tasks = [PointTask(_square, 1), FleetTask(cfg, shards=2),
                 PointTask(_square, 2)]
        seen = []
        run_schedule(tasks, processes=4,
                     progress=lambda done, total: seen.append((done, total)))
        # 2 points + 2 shard units = 4 units, reported monotonically.
        assert seen == [(1, 4), (2, 4), (3, 4), (4, 4)]

    def test_hazard_fleet_runs_inline_with_telemetry_attached(self):
        from repro.telemetry import Telemetry
        tel = Telemetry()
        cfg = _fleet_config(num_qps=16, num_ops=64, num_groups=2,
                            telemetry=tel)
        tasks = [PointTask(_square, 5), FleetTask(cfg, shards=2)]
        results = run_schedule(tasks, processes=4)
        assert results[0] == 25
        fleet = results[1]
        assert not fleet.plan.pooled
        assert "telemetry" in fleet.plan.reason
        # The session really observed every group cluster, inline.
        assert len(tel.clusters) == 2
        assert tel.counters().get("fabric", "switch_forwarded") > 0

    def test_fleet_collect_artifacts_survive_scheduling(self):
        cfg = _fleet_config(num_qps=32, num_ops=128, num_groups=2)
        from repro.experiments.shard import run_fleet
        direct = run_fleet(cfg, collect=("counters", "fingerprint"))
        task = FleetTask(cfg, collect=("counters", "fingerprint"))
        for processes in (1, 3):
            fleet = run_schedule([task], processes=processes)[0]
            assert fleet.fingerprint == direct.fingerprint
            assert fleet.counters.identity_surface() \
                == direct.counters.identity_surface()


class TestFigureWiring:
    """The figure drivers sit on the scheduler now; their classic
    outputs must not have moved."""

    def test_tab13_cells_bit_identical(self):
        from repro.apps.spark.workloads import SPARK_CELLS
        from repro.experiments.tab13_spark import run_table13
        cells = [SPARK_CELLS[0], SPARK_CELLS[3]]
        serial = run_table13(cells=cells, processes=1)
        parallel = run_table13(cells=cells, processes=4)
        assert serial.render() == parallel.render()

    def test_fig09_grouped_invariant_across_placement(self):
        # A grouped fig09 point is *defined* over per-group RNG streams
        # (a different, equally valid fleet definition — not the
        # monolithic classic run), so what must hold is placement
        # invariance: serial, pooled, and sharded all render the same.
        from repro.experiments.fig09_flood import run_figure9
        kwargs = dict(qps_values=[4], modes=[OdpSetup.CLIENT],
                      scale=128, seed=3, num_groups=2)
        serial = run_figure9(processes=1, **kwargs)
        pooled = run_figure9(processes=4, **kwargs)
        sharded = run_figure9(processes=4, shards=2, **kwargs)
        assert serial.render() == pooled.render() == sharded.render()

    def test_fig09_effective_groups_divisor_fallback(self):
        from repro.experiments.fig09_flood import effective_groups
        assert effective_groups(4, 64, 256) == 4
        assert effective_groups(4, 6, 256) == 2   # largest common divisor
        assert effective_groups(3, 5, 7) == 1     # nothing divides: classic
        assert effective_groups(1, 64, 256) == 1
