"""The paper's claims, one test per figure, table or ablation.

:data:`RENDERS` and :data:`SWEEP_RENDERS` form the one render table:
each maps the name of a committed golden under ``tests/golden/`` to the
call that produced it.  A call returns ``(result, text)``; ``text`` plus
a final newline is the golden's content, and ``result`` is what the
claims below inspect.  :func:`outcome` runs each call once per session,
so ``tests/test_golden_renders.py`` (the byte-for-byte golden pins) and
the shape assertions here share one run of every figure.
``tests/regen_goldens.py`` imports the same table and is the only
writer of goldens.

Each docstring names the PAPER.md passage and the DESIGN.md §4 row or
ablation bullet the test pins.  Sizes are reduced from the paper's but
keep every shape: who wins, by what order of magnitude, and where the
crossovers fall.
"""

from __future__ import annotations

import functools
from pathlib import Path

import pytest

from repro.apps.argodsm.benchmark import ARGO_SYSTEMS
from repro.apps.spark.workloads import get_cell
from repro.bench.microbench import MicrobenchConfig, OdpSetup, run_microbench
from repro.experiments.fig01_workflow import run_figure1, run_single_read
from repro.experiments.fig02_timeout import run_figure2, theoretical_ttr_ms
from repro.experiments.fig04_damming import run_figure4
from repro.experiments.fig05_workflow import run_figure5
from repro.experiments.fig06_probability import run_figure6a, run_figure6b
from repro.experiments.fig07_more_reads import run_figure7
from repro.experiments.fig08_workflow import run_figure8
from repro.experiments.fig09_flood import run_figure9
from repro.experiments.fig10_layout import run_figure10
from repro.experiments.fig11_completion import run_figure11
from repro.experiments.fig12_argodsm import run_figure12
from repro.experiments.tab13_spark import run_table13
from repro.experiments.tables import render_table1, render_table2
from repro.host.cluster import build_pair
from repro.ib.device import TABLE1_SYSTEMS, get_device
from repro.ib.verbs.enums import Access, OdpMode
from repro.ib.verbs.qp import QpAttrs
from repro.ib.verbs.wr import RemoteAddr, Sge, WorkRequest
from repro.rpc import RpcEndpoint
from repro.sim.timebase import MS
from tests.helpers import make_connected_pair

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

#: Worker count of the pooled sweeps; the goldens are rendered serially.
POOLED = 2

RNR = round(1.28 * MS)


def _rendered(result):
    return result, result.render()


def _fig01():
    server, client = run_figure1()
    return (server, client), server.render() + "\n\n" + client.render()


def _dam(profile=None, device="ConnectX-4", interval_us=1000, num_ops=2):
    return run_microbench(MicrobenchConfig(
        num_ops=num_ops, odp=OdpSetup.BOTH, interval_us=interval_us,
        min_rnr_timer_ns=RNR, device=device, profile=profile))


def _ablation_damming_flaw():
    flawed = _dam()
    clean = _dam(profile=get_device("ConnectX-4").without_quirks())
    return (flawed, clean), (
        f"ConnectX-4 with flaw:    {flawed.execution_time_s:.3f} s "
        f"({flawed.timeouts} timeouts)\n"
        f"ConnectX-4 without flaw: {clean.execution_time_s:.3f} s "
        f"({clean.timeouts} timeouts)")


def _ablation_rnr_delay():
    rows = []
    for delay_ms in (0.01, 0.32, 1.28, 5.12):
        r = run_microbench(MicrobenchConfig(
            num_ops=2, odp=OdpSetup.SERVER, interval_us=2500,
            min_rnr_timer_ns=round(delay_ms * MS)))
        rows.append((delay_ms, r.timed_out))
    return dict(rows), "\n".join(
        f"min RNR NAK delay {d} ms -> {'TIMEOUT' if t else 'ok'} at 2.5 ms "
        "interval" for d, t in rows)


def _ablation_dummy_comm():
    without = _dam(interval_us=3000, num_ops=2)
    with_dummy = _dam(interval_us=3000, num_ops=3)
    return (without, with_dummy), (
        f"2 ops: {without.execution_time_s:.3f} s "
        f"({without.timeouts} timeouts)\n"
        f"3 ops: {with_dummy.execution_time_s:.3f} s "
        f"({with_dummy.seq_naks} PSN-sequence NAKs)")


def _ablation_flood_engine():
    config = dict(size=32, num_ops=512, num_qps=128, odp=OdpSetup.CLIENT,
                  cack=18, min_rnr_timer_ns=RNR)
    flooded = run_microbench(MicrobenchConfig(**config))
    clean = run_microbench(MicrobenchConfig(
        **config, profile=get_device("ConnectX-4").without_quirks()))
    return (flooded, clean), (
        f"congested status engine: {flooded.execution_time_s * 1e3:.1f}"
        f" ms, {flooded.total_packets} packets\n"
        f"idealised status engine: {clean.execution_time_s * 1e3:.1f}"
        f" ms, {clean.total_packets} packets")


def _ablation_prefetch():
    times = {}
    for prefetch in (False, True):
        cluster, client, server = make_connected_pair(
            server_odp=OdpMode.EXPLICIT, populate=False)
        server.buf.write(0, b"d" * 256)
        if prefetch:
            server.mr.advise()
            cluster.sim.run_until_idle()
        t0 = cluster.sim.now
        client.qp.post_send(WorkRequest.read(
            wr_id=1, local=Sge(client.mr, client.buf.addr(0), 256),
            remote=RemoteAddr(server.buf.addr(0), server.mr.rkey)))
        cluster.sim.run_until_idle()
        times[prefetch] = cluster.sim.now - t0
    return times, (
        f"first READ without prefetch: {times[False] / 1e6:.3f} ms\n"
        f"first READ with ibv_advise_mr: {times[True] / 1e6:.3f} ms")


def _ablation_registration_cost():
    rows = []
    for pages in (16, 256, 4096):
        cluster = build_pair()
        node = cluster.nodes[0]
        pd = node.open_device().alloc_pd()
        region = node.mmap(pages * 4096)
        t0 = cluster.sim.now
        pd.reg_mr(region, Access.all(), odp=OdpMode.PINNED)
        cluster.sim.run_until_idle()
        pinned_ns = cluster.sim.now - t0
        region2 = node.mmap(pages * 4096)
        t0 = cluster.sim.now
        pd.reg_mr(region2, Access.all(), odp=OdpMode.EXPLICIT)
        cluster.sim.run_until_idle()
        odp_ns = cluster.sim.now - t0
        rows.append((pages, pinned_ns, odp_ns))
    return rows, "\n".join(
        f"{pages:5d} pages: pinned {pinned / 1e3:9.1f} us,"
        f" ODP {odp / 1e3:6.1f} us" for pages, pinned, odp in rows)


def _rc_loss_recovery_ns() -> int:
    cluster, client, server = make_connected_pair(
        attrs=QpAttrs(cack=1, retry_count=7))
    dropped = []
    cluster.network.add_loss_rule(
        lambda pkt: pkt.is_read_response and not dropped
        and not dropped.append(pkt))
    t0 = cluster.sim.now
    client.qp.post_send(WorkRequest.read(
        wr_id=1, local=Sge(client.mr, client.buf.addr(0), 64),
        remote=RemoteAddr(server.buf.addr(0), server.mr.rkey)))
    cluster.sim.run_until_idle()
    wc, = client.cq.poll(10)
    assert wc.ok
    return cluster.sim.now - t0


def _ud_loss_recovery_ns() -> int:
    cluster = build_pair()
    client = RpcEndpoint(cluster.nodes[0], timeout_ns=2_000_000)
    server = RpcEndpoint(cluster.nodes[1], handler=lambda req: b"ok")
    dropped = []
    cluster.network.add_loss_rule(
        lambda pkt: bool(pkt.payload) and pkt.payload[0] == 0
        and not dropped and not dropped.append(pkt))
    t0 = cluster.sim.now
    future = client.call_with_return_address(server.address, b"req")
    cluster.sim.run_until_idle()
    assert future.result == b"ok"
    return cluster.sim.now - t0


def _reliability_comparison():
    rc_ns, ud_ns = _rc_loss_recovery_ns(), _ud_loss_recovery_ns()
    return (rc_ns, ud_ns), (
        "Recovery from one lost packet:\n"
        f"  RC (hardware retransmission, C_ACK floor): {rc_ns / 1e6:8.1f}"
        " ms\n"
        f"  RPC over UD (application timeout):         {ud_ns / 1e6:8.1f}"
        " ms\n"
        f"  software / hardware speedup: {rc_ns / ud_ns:.0f}x")


FIG02_CACKS = [1, 4, 8, 10, 12, 14, 16, 18, 20, 21]

#: One cell per Table 13 behaviour class.
TAB13_CELLS = [
    get_cell("SparkTC", "KNL (2)"),                       # moderate (1.56x)
    get_cell("SparkTC", "Reedbush-H (2)"),                # severe (6.45x)
    get_cell("SparkTC", "ABCI (2)"),                      # immune (1.01x)
    get_cell("mllib.RankingMetricsExample", "ABCI (4)"),  # 2.37x
]

#: Golden name -> zero-argument call returning ``(result, text)``.
RENDERS = {
    "fig01_workflows": _fig01,
    "fig04_damming_time": lambda: _rendered(run_figure4(
        intervals_ms=[0.02, 0.1, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        trials=5)),
    "fig05_server_side":
        lambda: _rendered(run_figure5(OdpSetup.SERVER, 1.0)),
    "fig05_client_side":
        lambda: _rendered(run_figure5(OdpSetup.CLIENT, 0.3)),
    "fig06a_server_probability": lambda: _rendered(run_figure6a(
        intervals_ms=[0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0], trials=5)),
    "fig06b_client_probability": lambda: _rendered(run_figure6b(
        intervals_ms=[0.3, 0.5, 1.0, 2.0, 3.0, 4.5, 6.0], trials=5)),
    "fig07_more_reads": lambda: _rendered(run_figure7(
        intervals_ms=[0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0], trials=5)),
    "fig08_workflow": lambda: _rendered(run_figure8(interval_ms=3.0)),
    "fig09_flood": lambda: _rendered(run_figure9(
        qps_values=[1, 5, 10, 25, 50, 100], scale=8)),
    "fig10_layout": lambda: _rendered(run_figure10()),
    "fig11a_completion": lambda: _rendered(run_figure11(128)),
    "fig11b_completion": lambda: _rendered(run_figure11(512)),
    "table1_systems": lambda: (None, render_table1()),
    "table2_hosts": lambda: (None, render_table2()),
    "reliability_comparison": _reliability_comparison,
    "ablation_damming_flaw": _ablation_damming_flaw,
    "ablation_rnr_delay": _ablation_rnr_delay,
    "ablation_dummy_comm": _ablation_dummy_comm,
    "ablation_flood_engine": _ablation_flood_engine,
    "ablation_prefetch": _ablation_prefetch,
    "ablation_registration_cost": _ablation_registration_cost,
}

#: Golden name -> call taking the sweep's worker count.
SWEEP_RENDERS = {
    "fig02_timeouts": lambda processes: _rendered(run_figure2(
        cacks=FIG02_CACKS, processes=processes)),
    "fig12_knl": lambda processes: _rendered(run_figure12(
        "KNL (2 nodes)", trials=40, processes=processes)),
    "fig12_reedbush-h": lambda processes: _rendered(run_figure12(
        "Reedbush-H (2 nodes)", trials=40, processes=processes)),
    "tab13_spark": lambda processes: _rendered(run_table13(
        cells=TAB13_CELLS, processes=processes)),
}


@functools.lru_cache(maxsize=None)
def run_once(render, *args):
    """``(result, text)`` of one render-table call, run once per session."""
    return render(*args)


def outcome(name: str, processes: int = POOLED):
    """:func:`run_once` of the table entry ``name``."""
    if name in SWEEP_RENDERS:
        return run_once(SWEEP_RENDERS[name], processes)
    return run_once(RENDERS[name])


def result(name: str):
    return outcome(name)[0]


def test_fig01_single_read_workflows():
    """PAPER.md §1 (RNR-NAK server faults, retransmission-based client
    faults); DESIGN §4 Fig 1."""
    server, client = result("fig01_workflows")
    # server side: RNR NAK, then a ~4.5 ms wait
    assert server.rnr_naks >= 1
    assert 3.0 < server.completion_ms < 7.0
    # client side: blind ~0.5 ms retransmission, no RNR NAK
    assert client.rnr_naks == 0
    assert client.blind_retransmits >= 1
    assert client.completion_ms < 3.0
    # the wait tracks the configured minimal RNR NAK delay
    short = run_single_read(OdpSetup.SERVER, min_rnr_timer_ms=0.64)
    long = run_single_read(OdpSetup.SERVER, min_rnr_timer_ms=2.56)
    assert long.completion_ms > 1.5 * short.completion_ms


def test_fig02_timeout_floors():
    """PAPER.md §1 (``T_tr = 4.096 us * 2^C_ACK``, wrong-LID drop);
    DESIGN §4 Fig 2."""
    fig = result("fig02_timeouts")
    by_name = {c.system: c for c in fig.curves}
    assert len(fig.curves) == len(TABLE1_SYSTEMS)
    # two floors: ~30 ms (CX-5) and ~500 ms (the rest)
    assert 25 < by_name["Azure VM HCr Series"].floor_ms() < 40
    others = [c for n, c in by_name.items() if n != "Azure VM HCr Series"]
    for curve in others:
        assert 400 < curve.floor_ms() < 620, curve.system
    # every point lies in the spec window [T_tr, 4 T_tr] of the
    # effective (vendor-clamped) C_ACK
    systems = {s.name: s for s in TABLE1_SYSTEMS}
    for curve in fig.curves:
        device = systems[curve.system].device
        for cack, t_o in curve.points.items():
            ttr = theoretical_ttr_ms(device.effective_cack(cack))
            assert ttr * 0.99 <= t_o <= 4 * ttr * 1.01
    # the systems other than the CX-5 lie on almost the same line
    for cack in FIG02_CACKS:
        values = [c.points[cack] for c in others]
        assert max(values) / min(values) < 1.3


def test_tables_1_and_2_inventory():
    """PAPER.md §1 (ConnectX-3..6 RNICs); DESIGN §4 Table I and II."""
    table1 = outcome("table1_systems")[1]
    assert len(TABLE1_SYSTEMS) == 8
    for system in TABLE1_SYSTEMS:
        assert system.name in table1
        assert system.psid in table1
    table2 = outcome("table2_hosts")[1]
    for fragment in ("KNL", "Reedbush-H", "ABCI", "272", "36", "80"):
        assert fragment in table2


def test_fig04_damming_plateau():
    """PAPER.md §1 (packet damming: a stall of one ~500 ms RC timeout,
    paper Section V); DESIGN §4 Fig 4."""
    fig = result("fig04_damming_time")
    by_interval = {p.interval_ms: p for p in fig.points}
    # the plateau spans the pending window, fast below and above it
    plateau = fig.plateau_intervals_ms()
    assert 1.0 in plateau and 3.0 in plateau
    assert 0.02 not in plateau and 6.0 not in plateau
    assert by_interval[0.02].mean_exec_s < 0.05
    assert by_interval[6.0].mean_exec_s < 0.05
    # its height is the ~500 ms ConnectX-4 minimum timeout
    for p in fig.points:
        if 1.0 <= p.interval_ms <= 3.0:
            assert 0.4 < p.mean_exec_s < 0.7
    assert by_interval[1.0].timeout_fraction == 1.0


def test_fig05_two_read_damming_workflows():
    """PAPER.md §1 (packet damming, paper Section V); DESIGN §4 Fig 5."""
    server = result("fig05_server_side")
    assert server.damming.detected
    assert server.damming.stall_ns > 300 * MS
    assert server.flaw_drops >= 1
    assert 0.4 < server.execution_ms / 1000 < 0.7
    client = result("fig05_client_side")
    assert client.damming.detected
    assert client.damming.stall_ns > 300 * MS


def test_fig06_timeout_probability():
    """PAPER.md §1 (damming window = RNR wait or ~0.5 ms blind
    retransmit, paper Section V); DESIGN §4 Fig 6a/6b."""
    curves = {c.label: c for c in result("fig06a_server_probability").curves}
    # 1.28 ms: timeouts up to ~4.5 ms (the actual RNR delay)
    assert curves["1.28 ms"].points[3.0] >= 0.8
    assert curves["1.28 ms"].points[6.0] <= 0.2
    # 0.01 ms: the range collapses; 10.24 ms: all of it times out
    assert curves["0.01 ms"].points[3.0] <= 0.2
    assert curves["10.24 ms"].points[6.0] >= 0.8
    assert (curves["0.01 ms"].range_end_ms()
            < curves["1.28 ms"].range_end_ms()
            <= curves["10.24 ms"].range_end_ms())
    # client side: timeouts up to ~0.5 ms, gone well before the
    # server-side range
    client = result("fig06b_client_probability").curves[0]
    assert client.points[0.3] >= 0.8
    assert client.points[0.5] >= 0.4
    assert client.points[2.0] <= 0.25
    assert client.points[3.0] == 0.0
    assert client.points[4.5] == 0.0
    assert client.points[6.0] == 0.0


def test_fig07_more_reads_narrow_the_range():
    """PAPER.md §1 (packet damming, paper Section V); DESIGN §4 Fig 7."""
    fig = result("fig07_more_reads")
    r2, r3, r4 = (fig.range_end_ms(n) for n in (2, 3, 4))
    # paper: ~4.5 / ~2.25 / ~1.5 ms, the window / (n - 1)
    assert r2 >= 4.0
    assert 1.5 <= r3 <= 3.0
    assert 1.0 <= r4 <= 2.0
    assert r2 > r3 > r4
    # small intervals still time out for every operation count
    for n in (2, 3, 4):
        assert fig.probabilities[n][1.0] >= 0.8


def test_fig08_psn_nak_breaks_the_dam():
    """PAPER.md §1 (packet damming, paper Section V); DESIGN §4 Fig 8."""
    fig = result("fig08_workflow")
    assert fig.seq_naks >= 1
    assert fig.timeouts == 0
    assert fig.execution_ms < 20
    assert "NAK (PSN Sequence Error)" in [s.label for s in fig.steps]
    nak_at = next(s.time_ns for s in fig.steps
                  if s.label == "NAK (PSN Sequence Error)")
    # retransmissions follow the NAK within a millisecond
    retx = [s for s in fig.steps
            if s.retransmission and s.time_ns > nak_at]
    assert retx and retx[0].time_ns - nak_at < 1 * MS


def test_fig09_packet_flood():
    """PAPER.md §1 (packet flood: laggy page-status updates, blind
    retransmits every ~0.5 ms, paper Section VI); DESIGN §4 Fig 9a/9b."""
    fig = result("fig09_flood")
    base = {p.num_qps: p for p in fig.curves[OdpSetup.NONE]}
    client = {p.num_qps: p for p in fig.curves[OdpSetup.CLIENT]}
    both = {p.num_qps: p for p in fig.curves[OdpSetup.BOTH]}
    server = {p.num_qps: p for p in fig.curves[OdpSetup.SERVER]}
    qps_max = max(base)
    # the no-ODP baseline is flat and fast at every QP count
    assert all(p.execution_s < 0.1 for p in base.values())
    # one QP sits in the unavoidable-overhead band (200 faults x
    # 0.25-1 ms); beyond ~10 QPs client-side ODP degrades drastically
    assert 0.04 < client[1].execution_s < 0.5
    assert max(p.execution_s for p in client.values()) \
        > 4 * client[1].execution_s
    assert fig.degradation_factor() > 50
    # Figure 9b: client-side ODP multiplies the packets
    assert max(p.packets for p in client.values()) \
        > 10 * base[qps_max].packets
    # both-side tracks client-side; server-side degrades through RNR
    # waits and damming timeouts, with no blind retransmits
    assert max(p.execution_s for p in both.values()) \
        > 10 * base[qps_max].execution_s
    assert server[qps_max].execution_s > 10 * base[qps_max].execution_s
    assert server[qps_max].blind_retransmits == 0


def test_fig10_flood_buffer_layout():
    """PAPER.md §1 (packet flood, paper Section VI); DESIGN §4 Fig 10."""
    fig = result("fig10_layout")
    # 128 QPs x 32 B fill one 4096 B page exactly
    assert fig.ops_per_page() == 128
    rows = {op: (qp, off, page) for op, qp, off, page in fig.rows}
    assert rows[127] == (127, 127 * 32, 0)
    assert rows[128] == (0, 4096, 1)
    assert rows[511][2] == 3
    # every page carries exactly one message of each QP
    for page in range(4):
        qps = [qp for qp, _off, p in rows.values() if p == page]
        assert sorted(qps) == list(range(128))


def test_fig11_completion_timelines():
    """PAPER.md §1 (laggy per-QP page-status updates, paper Section VI);
    DESIGN §4 Fig 11a/11b."""
    one_page = result("fig11a_completion")
    assert one_page.timeouts == 0
    assert list(one_page.completion_ms_by_page) == [0]
    # completions begin around the fault resolution (~1 ms), but
    # stragglers persist for several more milliseconds
    first = min(one_page.completion_ms_by_page[0])
    assert 0.3 < first < 2.5
    assert 2.5 < one_page.last_op_completion_ms < 20
    # the first operations finish last (LIFO status updates)
    assert one_page.early_ops_finish_last
    assert one_page.first_op_completion_ms \
        > one_page.last_op_completion_ms * 0.7

    four_pages = result("fig11b_completion")
    by_page = four_pages.completion_ms_by_page
    assert sorted(by_page) == [0, 1, 2, 3]
    onsets = [min(by_page[p]) for p in range(4)]
    assert onsets == sorted(onsets)
    # the stall reaches hundreds of milliseconds (paper: ~800 ms) and
    # all 512 operations finish
    assert 50 < max(max(ts) for ts in by_page.values()) < 1000
    assert sum(len(ts) for ts in by_page.values()) == 512


@pytest.mark.parametrize("system", list(ARGO_SYSTEMS))
def test_fig12_argodsm_bimodal(system):
    """PAPER.md §1 (ArgoDSM's READ+SEND init/finalize triggers
    damming); DESIGN §4 Fig 12a/12b."""
    slug = system.split(" ")[0].lower()
    fig = result(f"fig12_{slug}")
    preset = ARGO_SYSTEMS[system]
    # without ODP: a tight cluster around the paper's baseline
    assert fig.without_odp.average_s == pytest.approx(
        preset.paper_without_odp_s, rel=0.10)
    assert fig.without_odp.damming_fraction == 0.0
    # with ODP: slower on average, bimodal, near the paper's average
    assert fig.with_odp.average_s > fig.without_odp.average_s + 0.15
    assert 0.05 < fig.with_odp.damming_fraction < 0.9
    assert fig.bimodal
    assert fig.with_odp.average_s == pytest.approx(
        preset.paper_with_odp_s, rel=0.25)


def test_tab13_spark_slowdowns():
    """PAPER.md §1 (SparkUCX shuffles over hundreds to thousands of
    QPs); DESIGN §4 Table 13."""
    table = result("tab13_spark")
    by_key = {(r.cell.workload, r.cell.system): r for r in table.results}
    for r in table.results:
        # enabling ODP never helps; the baseline tracks the paper's
        assert r.enable_s >= r.disable_s * 0.95
        assert r.disable_s == pytest.approx(r.scaled_paper_disable_s,
                                            rel=0.2)
    severe = by_key[("SparkTC", "Reedbush-H (2)")]
    immune = by_key[("SparkTC", "ABCI (2)")]
    moderate = by_key[("SparkTC", "KNL (2)")]
    # who wins and by roughly what factor (paper: up to 6.46x)
    assert severe.ratio > 3.0
    assert immune.ratio < 1.25
    assert 1.2 < moderate.ratio < 2.5
    assert severe.ratio > moderate.ratio > immune.ratio
    assert table.worst_ratio() > 3.0
    # the flood means more packets with ODP than without
    assert severe.enable_packets > 1.5 * severe.disable_packets


def test_ablation_damming_flaw():
    """DESIGN §4 ablation: the damming flaw off (ConnectX-6 behaviour)
    removes the plateau (paper Section V-C, last bullet)."""
    flawed, clean = result("ablation_damming_flaw")
    assert flawed.timed_out and not clean.timed_out
    assert flawed.execution_time_s > 50 * clean.execution_time_s
    assert not _dam(device="ConnectX-6").timed_out


def test_ablation_rnr_delay_workaround():
    """DESIGN §4 ablation: workaround 1, the smallest RNR NAK delay
    narrows the damming window (paper Section IX-A)."""
    timed_out = result("ablation_rnr_delay")
    assert timed_out[0.01] is False    # window shrank below 2.5 ms
    assert timed_out[1.28] is True     # 2.5 ms inside the ~4.5 ms window
    assert timed_out[5.12] is True


def test_ablation_dummy_communication_workaround():
    """DESIGN §4 ablation: workaround 2, dummy communication forces
    NAK(PSN) recovery (paper Section IX-A)."""
    without, with_dummy = result("ablation_dummy_comm")
    assert without.timed_out and not with_dummy.timed_out


def test_ablation_flood_status_engine():
    """DESIGN §4 ablation: an idealised page-status engine removes the
    flood (paper Section VI)."""
    flooded, clean = result("ablation_flood_engine")
    assert flooded.execution_time_s > 10 * clean.execution_time_s
    assert flooded.total_packets > 2 * clean.total_packets


def test_ablation_prefetch():
    """DESIGN §4 ablation: receiver-side prefetch (``advise_mr``)
    removes the common-case fault (related work [20])."""
    times = result("ablation_prefetch")
    assert times[True] < times[False] / 20


def test_ablation_registration_cost():
    """DESIGN §4 ablation: pinned registration grows with the page
    count, ODP registration is O(1) (paper Section VIII-A)."""
    rows = result("ablation_registration_cost")
    assert rows[2][1] > 100 * rows[0][1] * 0.5
    assert rows[2][2] == rows[0][2]


def test_reliability_software_beats_hardware_floor():
    """DESIGN §4 ablation: one lost packet costs RC the ~500 ms vendor
    timeout floor, an RPC over UD one application timeout (paper
    Section VIII-C)."""
    rc_ns, ud_ns = result("reliability_comparison")
    assert rc_ns > 400 * MS
    assert ud_ns < 10 * MS
    assert rc_ns / ud_ns > 50
