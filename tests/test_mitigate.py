"""Mitigation layer: registry contract, ``strategy=none`` bit-identity
against the un-knobbed build, fast-path decline semantics, pitfall
efficacy judged by ``telemetry.diagnose``, the full strategy grid
(scenario set, a mitigator per scenario plain and under chaos, a clean
invariant monitor in every cell), eviction-storm robustness of
dynamic-pin, and sweep pass-through of the ``mitigation`` knob.
"""

import dataclasses

import pytest

from repro.bench.microbench import OdpSetup, run_microbench
from repro.chaos import ChaosEngine, ChaosPlan, FaultKind, FaultWindow
from repro.experiments.fig09_flood import run_figure9
from repro.ib.validate import InvariantMonitor
from repro.mitigate import STRATEGIES, get_strategy, resolve_strategy
from repro.mitigate.compare import run_cell, run_compare, scenarios
from repro.sim.timebase import MS, US
from repro.telemetry import Telemetry
from repro.telemetry.smoke import _damming_config, _flood_config, _surface


def _with(config, **overrides):
    return dataclasses.replace(config, **overrides)


def _scenario(name):
    (match,) = [s for s in scenarios(fast=True) if s.name == name]
    return match


class TestRegistry:
    def test_required_strategies_present(self):
        assert {"none", "selective-retransmit", "dynamic-pin",
                "prefetch-advise"} <= set(STRATEGIES)

    def test_strategies_are_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            STRATEGIES["dynamic-pin"].pin_budget_pages = 1

    def test_none_resolves_to_no_install(self):
        assert resolve_strategy("none") is None
        assert resolve_strategy("dynamic-pin") is STRATEGIES["dynamic-pin"]

    def test_typo_raises_with_choices(self):
        with pytest.raises(ValueError, match="selective-retransmit"):
            get_strategy("selective")

    def test_compatibility_declarations(self):
        selective = STRATEGIES["selective-retransmit"]
        assert not selective.coalesce_compatible
        for name in ("none", "dynamic-pin", "prefetch-advise"):
            assert STRATEGIES[name].coalesce_compatible


class TestNoneBitIdentity:
    """The acceptance gate: ``mitigation="none"`` must reproduce the
    un-knobbed run bit for bit — metrics, trace fingerprints, and the
    counter identity surface."""

    @pytest.mark.parametrize("odp", list(OdpSetup))
    def test_fig04_surface_identical_all_modes(self, odp):
        implicit = run_microbench(_damming_config(0, odp=odp))
        explicit = run_microbench(
            _with(_damming_config(0, odp=odp), mitigation="none"))
        assert _surface(implicit) == _surface(explicit)

    @pytest.mark.parametrize("odp", [OdpSetup.CLIENT, OdpSetup.SERVER,
                                     OdpSetup.BOTH])
    def test_fig09_surface_identical(self, odp):
        base = _with(_flood_config(0, num_qps=8, num_ops=64), odp=odp)
        implicit = run_microbench(base)
        explicit = run_microbench(_with(base, mitigation="none"))
        assert _surface(implicit) == _surface(explicit)

    @pytest.mark.parametrize("config_fn", [
        lambda tel: _damming_config(0, telemetry=tel),
        lambda tel: _flood_config(0, num_qps=8, num_ops=64, telemetry=tel),
    ], ids=["fig04", "fig09"])
    def test_fingerprints_and_counters_identical(self, config_fn):
        streams = []
        for knobbed in (False, True):
            tel = Telemetry(capacity=1 << 18)
            config = config_fn(tel)
            if knobbed:
                config = _with(config, mitigation="none")
            run_microbench(config)
            streams.append((tel.fingerprint(),
                            tel.counters().identity_surface()))
        assert streams[0][0] == streams[1][0]
        assert streams[0][1] == streams[1][1]


class TestDeclineSemantics:
    """Incompatible (strategy, fast-path) combinations decline with a
    tallied reason and never change what the run measures."""

    @pytest.mark.parametrize("shape", [
        pytest.param(dict(num_qps=8, num_ops=64), id="window16"),
        pytest.param(dict(num_qps=256, num_ops=1024, max_rd_atomic=1),
                     id="window1")])
    def test_selective_declines_coalescer_with_tally(self, shape):
        """The closed forms replay the go-back-N burst shape, so under
        selective-retransmit every round declines with a ``"mitigation"``
        tally, the run's fallback tally is exactly those declines, and
        it measures what the ``coalesce=False`` run does."""
        base = _with(_flood_config(0, num_qps=8, num_ops=64), **shape,
                     mitigation="selective-retransmit")
        clusters = []
        on = run_microbench(_with(base, coalesce=True),
                            on_cluster=clusters.append)
        off = run_microbench(_with(base, coalesce=False))
        declined = sum(qp.coalescer.decline_reasons.get("mitigation", 0)
                       for node in clusters[0].nodes
                       for qp in node.rnic._qps.values())
        assert declined > 0
        assert on.mitigation_fallbacks == {"coalesce": declined}
        assert _surface(on) == _surface(off)
        assert on.coalesced_rounds == 0  # every round declined

    @pytest.mark.parametrize("strategy", ["dynamic-pin",
                                          "prefetch-advise"])
    def test_compatible_strategy_declines_nothing(self, strategy):
        result = run_microbench(
            _with(_flood_config(0, num_qps=8, num_ops=64),
                  coalesce=True, mitigation=strategy))
        assert result.mitigation_fallbacks == {}


class TestEfficacy:
    """Each pitfall episode present under ``none`` must disappear (or
    shrink >= 2x) under at least one strategy, judged by
    ``telemetry.diagnose`` on the compare-grid scenarios."""

    def test_damming_episode_under_none(self):
        row = run_cell(_scenario("fig04-damming"), "none", 0)
        assert row.damming_episodes == 1
        assert row.stalled_ms > 100  # the C_ACK detection stall
        assert row.monitor_violations == 0

    @pytest.mark.parametrize("strategy", ["selective-retransmit",
                                          "prefetch-advise"])
    def test_damming_mitigated(self, strategy):
        base = run_cell(_scenario("fig04-damming"), "none", 0)
        row = run_cell(_scenario("fig04-damming"), strategy, 0)
        assert row.damming_episodes == 0
        assert row.stalled_ms * 2 <= base.stalled_ms
        assert row.monitor_violations == 0

    def test_flood_episode_under_none(self):
        row = run_cell(_scenario("fig09-flood"), "none", 0)
        assert row.flood_episodes == 1
        assert row.blind_rounds > 0
        assert row.monitor_violations == 0

    def test_flood_mitigated_by_dynamic_pin(self):
        base = run_cell(_scenario("fig09-flood"), "none", 0)
        row = run_cell(_scenario("fig09-flood"), "dynamic-pin", 0)
        assert row.flood_episodes == 0
        assert row.stalled_ms * 2 <= base.stalled_ms
        assert row.monitor_violations == 0


class TestCompareGrid:
    """The whole ``repro mitigate`` grid at fast size: every scenario,
    plain and under its fixed chaos plan."""

    @pytest.fixture(scope="class")
    def grid(self):
        return run_compare(seed=0, fast=True, chaos=True)

    def test_scenario_set(self, grid):
        assert sorted({row.scenario for row in grid.rows}) == [
            "fig04-damming", "fig09-flood", "fig12-argodsm", "tab13-spark"]

    @pytest.mark.parametrize("chaos", [False, True],
                             ids=["plain", "chaos"])
    def test_every_scenario_exhibited_and_mitigated(self, grid, chaos):
        for scenario in {row.scenario for row in grid.rows}:
            none = grid.row(scenario, "none", chaos)
            episodes = (none.damming_episodes if none.pitfall == "damming"
                        else none.flood_episodes)
            assert episodes >= 1, scenario
            assert any(v.mitigated for v in grid.verdicts()
                       if v.scenario == scenario and v.chaos == chaos), \
                scenario

    def test_monitor_clean_in_every_cell(self, grid):
        assert [(row.scenario, row.strategy, row.chaos)
                for row in grid.rows if row.monitor_violations] == []


class TestDynamicPinUnderStorm:
    """Dynamic-pin must recover from an ODP eviction-storm fault window
    without invariant violations, deterministically: pinned pages are
    exempt from reclaim, so the storm cannot unmap the working set."""

    _PLAN = ChaosPlan([FaultWindow(0, 2 * MS, FaultKind.EVICTION_STORM,
                                   lids=(1,), period_ns=100 * US,
                                   pages=4)])

    def _run(self, seed):
        captured = {}

        def hook(cluster):
            captured["chaos"] = ChaosEngine(cluster, self._PLAN,
                                            seed=seed).install()
            captured["monitor"] = InvariantMonitor(cluster)
            captured["cluster"] = cluster

        config = _with(_flood_config(seed, num_qps=8, num_ops=64),
                       mitigation="dynamic-pin")
        result = run_microbench(config, on_cluster=hook)
        return result, captured

    def test_recovers_clean_and_pins_the_working_set(self):
        result, captured = self._run(0)
        assert result.errors == 0
        captured["monitor"].assert_clean()
        client_odp = captured["cluster"].nodes[0].rnic.odp
        assert client_odp.pinned_pages() > 0

    def test_deterministic_under_storm(self):
        first, cap_a = self._run(0)
        second, cap_b = self._run(0)
        assert _surface(first) == _surface(second)
        assert cap_a["chaos"].fingerprint() == cap_b["chaos"].fingerprint()


class TestSweepShardPassThrough:
    """The ``mitigation`` knob must sweep like any other grid axis:
    bit-identical results at any jobs split."""

    def test_fig09_sweep_bit_identical_across_jobs(self):
        kwargs = dict(qps_values=[1, 4], modes=[OdpSetup.CLIENT],
                      scale=128, seed=3, mitigation="prefetch-advise")
        serial = run_figure9(processes=1, **kwargs)
        parallel = run_figure9(processes=4, **kwargs)
        assert serial.curves == parallel.curves
        assert serial.render() == parallel.render()

    def test_fig09_none_knob_matches_unknobbed_sweep(self):
        kwargs = dict(qps_values=[1, 4], modes=[OdpSetup.CLIENT],
                      scale=128, seed=3)
        assert run_figure9(**kwargs).curves == \
            run_figure9(mitigation="none", **kwargs).curves
