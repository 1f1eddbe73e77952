"""A finished run frees itself (``Cluster.release``).

Every entry point that builds a cell releases it once its outputs are
read, so reference counting reclaims the whole cell when its owner
drops it: with automatic GC off, ``gc.collect()`` finds nothing.  And
every top-down read of the finished run (counters, packet totals, the
coalescer's decline tallies) reads the same before and after.
"""

import gc

import pytest

from repro.apps.spark.benchmark import _run_once
from repro.apps.spark.workloads import SPARK_CELLS
from repro.bench.microbench import MicrobenchConfig, OdpSetup, run_microbench
from repro.capture.sniffer import Sniffer
from repro.chaos.engine import ChaosEngine
from repro.chaos.plan import ChaosPlan, FaultKind, FaultWindow
from repro.host.cluster import Cluster
from repro.ib.validate import InvariantMonitor
from repro.service import ServiceCellConfig, run_cell
from repro.service.interference import noisy_neighbor_mix
from repro.sim.timebase import MS
from repro.telemetry import Telemetry
from repro.telemetry.counters import collect_counters


def top_down_reads(cluster):
    """What perfbench's traced harvest and the fleet merges read."""
    declines = [dict(qp.coalescer.decline_reasons)
                for node in cluster.nodes
                for _qpn, qp in sorted(node.rnic._qps.items())
                if hasattr(qp, "coalescer")]
    chaos = cluster.network.chaos
    return (collect_counters(cluster).items(), cluster.total_packets(),
            declines, None if chaos is None else chaos.drop_log())


@pytest.fixture
def released(monkeypatch):
    """Record each built cluster and its reads just before release."""
    clusters = []
    before = []
    release = Cluster.release

    def recording_release(cluster):
        before.append(top_down_reads(cluster))
        release(cluster)

    monkeypatch.setattr(Cluster, "release", recording_release)
    monkeypatch.setattr(Cluster, "instrument", clusters.append)
    return clusters, before


def run_without_gc(clusters, before, run):
    """Run with automatic GC off; check the reads, drop everything and
    return what the cyclic collector still finds."""
    gc.collect()
    gc.disable()
    try:
        run()
        assert len(before) == len(clusters) > 0
        # a comprehension, so no loop variable keeps a cluster alive
        assert [top_down_reads(cluster) for cluster in clusters] == before
        clusters.clear()
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("integrity", [True, False],
                         ids=["integrity", "lazy"])
@pytest.mark.parametrize("odp", list(OdpSetup), ids=lambda o: o.value)
def test_microbench_point_leaves_no_cycles(released, odp, integrity):
    clusters, before = released

    def run():
        # built in here: a config held by the test would keep the cell
        # reachable through its telemetry session
        run_microbench(MicrobenchConfig(
            num_ops=4, odp=odp, interval_us=300, integrity=integrity,
            seed=5, telemetry=Telemetry()))

    assert run_without_gc(clusters, before, run) == 0


def test_client_flood_leaves_no_cycles(released):
    """Coalesced blind rounds memoise the peer QP and RNIC."""
    clusters, before = released

    def run():
        result = run_microbench(MicrobenchConfig(
            num_ops=64, num_qps=8, odp=OdpSetup.CLIENT, cack=18,
            integrity=False, seed=3))
        assert result.coalesced_rounds > 0

    assert run_without_gc(clusters, before, run) == 0


def test_undetached_monitor_leaves_no_cycles(released):
    """An observer's tap that nobody removes no longer pins the cell."""
    clusters, before = released

    def run():
        run_microbench(
            MicrobenchConfig(num_ops=4, odp=OdpSetup.BOTH, interval_us=300,
                             seed=5),
            on_cluster=InvariantMonitor)

    assert run_without_gc(clusters, before, run) == 0


def test_sniffer_reads_and_detaches_after_release(released):
    clusters, before = released
    sniffers = []

    def run():
        run_microbench(
            MicrobenchConfig(num_ops=4, odp=OdpSetup.BOTH, interval_us=300,
                             seed=5),
            on_cluster=lambda c: sniffers.append(Sniffer(c.network)))

    assert run_without_gc(clusters, before, run) == 0
    (sniffer,) = sniffers
    total_packets = before[0][1]
    assert len(sniffer.records) == total_packets > 0
    sniffer.detach()


def test_service_cell_leaves_no_cycles(released):
    clusters, before = released
    config = ServiceCellConfig(tenants=noisy_neighbor_mix(fast=True),
                               seed=0)
    assert run_without_gc(clusters, before, lambda: run_cell(config)) == 0


def test_spark_group_run_leaves_no_cycles(released):
    """One small Table 13 job, shaped like a fleet group's ODP phase."""
    clusters, before = released

    def run():
        out = _run_once(SPARK_CELLS[0], odp_enabled=True, seed=1,
                        total_qps=16, cold_pages=4, fetches=2, num_rounds=1,
                        record_completions=True, telemetry=Telemetry())
        assert out["completions"]

    assert run_without_gc(clusters, before, run) == 0


#: A 50% drop window, and a link flap that drains tracked deliveries.
CHAOS_WINDOWS = {
    "drop": FaultWindow(0, 2 * MS, FaultKind.DROP, probability=0.5),
    "flap": FaultWindow(MS // 2, MS, FaultKind.LINK_FLAP, lids=(1,)),
}


@pytest.mark.parametrize("kind", sorted(CHAOS_WINDOWS))
def test_chaos_cell_leaves_no_cycles(released, kind):
    """The chaos engine and the network it faults point at each other;
    release cuts that too, and its drop log stays readable."""
    clusters, before = released

    def install(cluster):
        ChaosEngine(cluster, ChaosPlan([CHAOS_WINDOWS[kind]]),
                    seed=1).install()

    def run():
        run_microbench(MicrobenchConfig(
            num_ops=64, num_qps=8, odp=OdpSetup.CLIENT, cack=18,
            integrity=False, seed=3), on_cluster=install)

    assert run_without_gc(clusters, before, run) == 0
    (reads,) = before
    assert reads[3], "the window dropped nothing"
