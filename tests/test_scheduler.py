"""The weighted sweep is the figures' scheduler, and it must be invisible:
any mix of plain points and grouped fleet points, any pool width, any
weights — results equal the serial loop's bit for bit.  Only wall-clock
may move.
"""

import dataclasses
import os

from repro.bench.microbench import MicrobenchConfig, OdpSetup, run_microbench
from repro.experiments.fig09_flood import run_figure9
from repro.experiments.runner import sweep, sweep_session
from repro.experiments.shard import run_fleet


def _fleet_config(**overrides):
    """A small grouped flood fleet (fig09-shaped)."""
    base = dict(size=400, num_ops=128, num_qps=32, interval_us=0.0,
                odp=OdpSetup.CLIENT, integrity=False, seed=50,
                max_rd_atomic=1, coalesce=True, num_groups=2)
    base.update(overrides)
    return MicrobenchConfig(**base)


def _metrics(result):
    d = dataclasses.asdict(result)
    d.pop("config")
    d.pop("coalesced_rounds")
    d.pop("events_coalesced")
    return d


def _mixed_point(point):
    """A plain point squares an int; a config point runs its fleet."""
    if isinstance(point, int):
        return point * point
    return _metrics(run_fleet(point).result)


def _tagged_square(point):
    return (os.getpid(), point * point)


class TestScheduleEqualsSerial:
    """The acceptance gate: mixed weighted sweeps, pooled vs serial."""

    def test_mixed_points_and_fleet_bit_identical(self):
        cfg = _fleet_config()
        points = [3, cfg, 7]
        weights = [1.0, 8.0, 1.0]
        serial = sweep(_mixed_point, points, processes=1, weights=weights)
        pooled = sweep(_mixed_point, points, processes=3, weights=weights)
        assert serial[0] == pooled[0] == 9
        assert serial[2] == pooled[2] == 49
        assert serial[1] == pooled[1]
        # And both equal the fleet run outside any sweep.
        assert pooled[1] == _metrics(run_microbench(cfg))

    def test_repro_serial_env_forces_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERIAL", "1")
        with sweep_session() as session:
            tags = sweep(_tagged_square, list(range(4)), processes=4,
                         weights=[0, 3, 1, 2])
            assert session.pool is None
            assert session.pooled_sweeps == 0
        assert [square for _pid, square in tags] == [0, 1, 4, 9]
        assert all(pid == os.getpid() for pid, _square in tags)

    def test_empty_schedule(self):
        assert sweep(_tagged_square, [], processes=4, weights=[]) == []
        with sweep_session() as session:
            assert sweep(_tagged_square, [], processes=4) == []
            assert session.pool is None


class TestFigureWiring:
    """The figure entry points run on the weighted sweep; their outputs must
    not depend on placement."""

    def test_fig09_grouped_invariant_across_placement(self):
        # A grouped fig09 point is *defined* over per-group RNG streams
        # (a different, equally valid fleet definition — not the
        # monolithic classic run), so what must hold is placement
        # invariance: serial, pooled, and sharded all render the same.
        # The 1-QP cell cannot split, so plain and fleet points mix.
        kwargs = dict(qps_values=[1, 4, 8], modes=[OdpSetup.CLIENT],
                      scale=128, seed=3, num_groups=2)
        serial = run_figure9(processes=1, **kwargs)
        pooled = run_figure9(processes=4, **kwargs)
        pooled_sharded = run_figure9(processes=4, shards=2, **kwargs)
        serial_sharded = run_figure9(processes=1, shards=2, **kwargs)
        assert serial.render() == pooled.render() \
            == pooled_sharded.render() == serial_sharded.render()

    def test_fig09_effective_groups_divisor_fallback(self):
        from repro.experiments.fig09_flood import effective_groups
        assert effective_groups(4, 64, 256) == 4
        assert effective_groups(4, 6, 256) == 2   # largest common divisor
        assert effective_groups(3, 5, 7) == 1     # nothing divides: classic
        assert effective_groups(1, 64, 256) == 1
