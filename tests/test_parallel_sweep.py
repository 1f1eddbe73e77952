"""Parallel sweeps must be invisible: same rows, bit for bit, at any
process count, pool width, weights or mix of plain and grouped fleet
points — determinism survives the pool because every point owns its
``Simulator(seed)``.  Only wall-clock may move.
"""

import dataclasses
import os

import pytest

from repro.bench.microbench import MicrobenchConfig, OdpSetup, run_microbench
from repro.experiments import runner
from repro.experiments.fig02_timeout import run_figure2
from repro.experiments.fig09_flood import run_figure9
from repro.experiments.runner import default_jobs, sweep, sweep_session
from repro.experiments.shard import run_fleet
from repro.telemetry import telemetry_session


def _square(point):
    return point * point


def _tagged(point):
    return (os.getpid(), point)


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


class TestSweepRunner:
    def test_serial_and_parallel_preserve_order(self):
        points = list(range(20))
        assert sweep(_square, points, processes=1) == \
            sweep(_square, points, processes=4) == \
            [p * p for p in points]

    def test_parallel_actually_uses_workers(self):
        tags = sweep(_tagged, list(range(8)), processes=2)
        assert [point for _pid, point in tags] == list(range(8))
        assert all(pid != os.getpid() for pid, _point in tags)

    def test_repro_serial_env_forces_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERIAL", "1")
        tags = sweep(_tagged, list(range(4)), processes=4)
        assert all(pid == os.getpid() for pid, _point in tags)

    def test_repro_jobs_env_sets_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert default_jobs() == 3
        monkeypatch.setenv("REPRO_JOBS", "0")
        assert default_jobs() == 1

    def test_malformed_repro_jobs_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "abc")
        with pytest.raises(ValueError, match="REPRO_JOBS='abc'"):
            default_jobs()
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            sweep(_square, list(range(4)))

    def test_nested_sweep_marker_forces_serial(self, monkeypatch):
        monkeypatch.setenv(runner._IN_WORKER_ENV, "1")
        tags = sweep(_tagged, list(range(4)), processes=4)
        assert all(pid == os.getpid() for pid, _point in tags)

    def test_empty_points(self):
        assert sweep(_square, [], processes=4) == []


class TestSweepSession:
    """One pool across consecutive sweeps: spawn cost paid once,
    results bit-identical with and without the session."""

    def test_consecutive_sweeps_share_one_pool(self):
        points = list(range(8))
        with sweep_session() as session:
            assert session.pool is None  # lazily created
            first = sweep(_tagged, points, processes=2)
            pool = session.pool
            assert pool is not None
            second = sweep(_tagged, points, processes=2)
            assert session.pool is pool
            assert session.pooled_sweeps == 2
            workers = set(pool._processes)
        assert session.pool is None  # shut down on exit
        # Every point of both sweeps ran in the one pool's workers.
        assert {pid for pid, _p in first} | {pid for pid, _p in second} \
            <= workers

    def test_results_bit_identical_with_and_without_session(self):
        points = list(range(17))
        bare = sweep(_square, points, processes=3)
        with sweep_session():
            pooled = sweep(_square, points, processes=3)
        assert pooled == bare == [p * p for p in points]

    def test_serial_sweeps_never_fork_the_pool(self):
        with sweep_session() as session:
            sweep(_square, list(range(4)), processes=1)
            assert session.pool is None
            assert session.pooled_sweeps == 0

    def test_nested_sessions_reuse_the_innermost(self):
        with sweep_session() as outer:
            sweep(_square, list(range(6)), processes=2)
            with sweep_session() as inner:
                assert inner is outer
                sweep(_square, list(range(6)), processes=2)
            # Inner exit must not tear down the outer session's pool.
            assert outer.pool is not None
            assert outer.pooled_sweeps == 2
        assert outer.pool is None

    def test_pinned_processes_bound_the_pool(self):
        with sweep_session(processes=2) as session:
            tags = sweep(_tagged, list(range(12)), processes=6)
            assert session.pool is not None
            assert session.pool._max_workers == 2
        assert [p for _pid, p in tags] == list(range(12))

    def test_pinned_session_runs_oversized_sweep_at_its_width(self):
        points = list(range(12))
        with sweep_session(processes=2) as session:
            sweep(_square, list(range(4)), processes=2)
            pool = session.pool
            got = sweep(_square, points, processes=6)
            tags = sweep(_tagged, points, processes=6)
            # The pool is never replaced by a wider one.
            assert session.pool is pool
            assert pool._max_workers == 2
        assert got == sweep(_square, points, processes=1) \
            == [p * p for p in points]
        assert [p for _pid, p in tags] == points
        assert len({pid for pid, _p in tags}) <= 2

    def test_figure_sweep_identical_inside_session(self):
        kwargs = dict(cacks=[1, 18], systems=["Reedbush-H"])
        bare = run_figure2(processes=2, **kwargs)
        with sweep_session():
            pooled = run_figure2(processes=2, **kwargs)
            again = run_figure2(processes=2, **kwargs)
        assert [c.points for c in bare.curves] == \
            [c.points for c in pooled.curves] == \
            [c.points for c in again.curves]


class TestFigureWiring:
    """The figure entry points run on the weighted sweep; their outputs
    must not depend on placement."""

    def test_fig09_grouped_invariant_across_placement(self):
        # A grouped fig09 point is *defined* over per-group RNG streams
        # (a different, equally valid fleet definition — not the
        # monolithic classic run), so what must hold is placement
        # invariance: serial, pooled, and sharded all render the same.
        # The 1-QP cell cannot split, so plain and fleet points mix.
        kwargs = dict(qps_values=[1, 4, 8], modes=[OdpSetup.CLIENT],
                      scale=128, seed=3, num_groups=2)
        serial = run_figure9(processes=1, **kwargs)
        assert list(serial.curves) == [OdpSetup.CLIENT]
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


class TestParallelEqualsSerial:
    """The ISSUE acceptance gate: reduced fig02/fig09 sweeps, 4 worker
    processes versus serial, asserting *identical* result rows."""

    def test_fig02_rows_bit_identical(self):
        kwargs = dict(cacks=[1, 14, 18],
                      systems=["Private servers A", "Reedbush-H"])
        serial = run_figure2(processes=1, **kwargs)
        parallel = run_figure2(processes=4, **kwargs)
        assert [c.points for c in serial.curves] == \
            [c.points for c in parallel.curves]
        assert serial.render() == parallel.render()

    def test_fig09_rows_bit_identical(self):
        kwargs = dict(qps_values=[1, 4],
                      modes=[OdpSetup.NONE, OdpSetup.CLIENT],
                      scale=128, seed=3)
        serial = run_figure9(processes=1, **kwargs)
        parallel = run_figure9(processes=4, **kwargs)
        assert serial.curves == parallel.curves
        assert serial.render() == parallel.render()


@pytest.mark.skipif(default_jobs() < 4,
                    reason="speedup needs >= 4 usable cores")
def test_fig09_parallel_wall_clock_speedup():
    """With real cores available, 4 workers must at least halve the
    serial wall-clock of a reduced fig09 sweep."""
    import time

    kwargs = dict(qps_values=[1, 5, 10, 25],
                  modes=[OdpSetup.NONE, OdpSetup.SERVER,
                         OdpSetup.CLIENT, OdpSetup.BOTH],
                  scale=32)
    started = time.perf_counter()
    serial = run_figure9(processes=1, **kwargs)
    serial_s = time.perf_counter() - started
    started = time.perf_counter()
    parallel = run_figure9(processes=4, **kwargs)
    parallel_s = time.perf_counter() - started
    assert serial.render() == parallel.render()
    assert parallel_s <= 0.5 * serial_s, \
        f"parallel {parallel_s:.1f}s vs serial {serial_s:.1f}s"


class TestWeights:
    """``weights`` order submission heaviest first; results never move."""

    def test_weights_never_change_results(self):
        points = list(range(15))
        weights = [p % 4 for p in points]
        expected = [p * p for p in points]
        assert sweep(_square, points, processes=1, weights=weights) \
            == sweep(_square, points, processes=3, weights=weights) \
            == sweep(_square, points, processes=3) == expected

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

    def test_weighted_sweep_inside_session(self):
        points = list(range(9))
        weights = list(reversed(points))
        with sweep_session() as session:
            tags = sweep(_tagged, points, processes=2, weights=weights)
            assert session.pooled_sweeps == 1
        assert [p for _pid, p in tags] == points
        assert all(pid != os.getpid() for pid, _p in tags)


def _microbench_point(seed):
    """A tiny instrumented-run probe: one fresh cluster per point."""
    run = run_microbench(MicrobenchConfig(size=400, num_ops=8, num_qps=2,
                                          integrity=False, seed=seed))
    return run.total_packets


def _fleet_point(seed):
    """A two-group flood fleet: two group clusters per point."""
    fleet = run_fleet(MicrobenchConfig(
        size=400, num_ops=64, num_qps=16, interval_us=0.0,
        odp=OdpSetup.CLIENT, integrity=False, seed=seed,
        max_rd_atomic=1, num_groups=2), shards=2)
    return fleet.result.total_packets


class TestInstrumentedSweeps:
    """Pool workers do not inherit ``Cluster.instrument``, so a sweep
    runs serially while it is armed — observation never drops points."""

    def test_telemetry_session_sees_every_point(self):
        serial = sweep(_microbench_point, [1, 2, 3, 4], processes=1)
        with telemetry_session() as tel:
            watched = sweep(_microbench_point, [1, 2, 3, 4], processes=2)
        assert len(tel.clusters) == 4
        assert watched == serial

    def test_armed_hook_forces_serial(self):
        assert not runner.serial_forced()
        with telemetry_session():
            assert runner.serial_forced()
        assert not runner.serial_forced()

    def test_fleet_point_observes_every_group_cluster(self):
        serial = sweep(_fleet_point, [5, 6], processes=1)
        with telemetry_session() as tel:
            with sweep_session() as session:
                watched = sweep(_fleet_point, [5, 6], processes=2)
                assert session.pool is None
        assert watched == serial
        assert len(tel.clusters) == 4     # 2 points x 2 groups
        assert tel.counters().get("fabric", "switch_forwarded") > 0
