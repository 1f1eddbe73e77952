"""Fleet batched delivery: bit-identity on the former array-core shapes.

Fleet sweeps were once unlocked by a separate ``arraycore`` knob; they
are now the coalescer's third tier behind ``coalesce`` alone.
The contract is unchanged — *exact or decline*: a ``coalesce=True`` run
in the fleet-eligible configuration (lazy payloads, window 1) must report
every metric bit-identical to the per-packet run.  These tests enforce
that on Figure 4- and Figure 9-shaped workloads (every ODP mode) and on a
flood where the fleet tier runs alongside blind and joint rounds.
"""

import dataclasses

import pytest

from tests.helpers import make_connected_pair  # noqa: F401 - import order
from repro.bench.microbench import (MicrobenchConfig, OdpSetup,
                                    run_microbench)
from repro.sim.timebase import MS


def _metrics(result):
    """Every reported metric (the bit-identity surface).

    ``coalesced_rounds`` and ``events_coalesced`` describe how the run
    was executed, not what it measured, and legitimately differ.
    """
    d = dataclasses.asdict(result)
    d.pop("config")
    d.pop("coalesced_rounds")
    d.pop("events_coalesced")
    return d


def _flood_config(coalesce, num_qps=50, num_ops=512, size=400,
                  odp=OdpSetup.CLIENT, seed=50):
    """A Figure 9-shaped flood point at window 1 with lazy payloads —
    the configuration fleet sweeps are allowed to carry."""
    return MicrobenchConfig(size=size, num_ops=num_ops, num_qps=num_qps,
                            odp=odp, cack=14,
                            min_rnr_timer_ns=round(1.28 * MS),
                            integrity=False, seed=seed, max_rd_atomic=1,
                            coalesce=coalesce)


class TestBitIdentity:
    @pytest.mark.parametrize("odp", list(OdpSetup))
    def test_fig04_shape(self, odp):
        """The paper's damming experiment, 2 ops, every ODP mode, in the
        fleet-eligible configuration."""
        def cfg(coalesce):
            return MicrobenchConfig(size=100, num_ops=2, num_qps=1,
                                    odp=odp,
                                    min_rnr_timer_ns=round(1.28 * MS),
                                    integrity=False, max_rd_atomic=1,
                                    coalesce=coalesce)
        off = run_microbench(cfg(False))
        on = run_microbench(cfg(True))
        assert _metrics(off) == _metrics(on)

    @pytest.mark.parametrize("odp", [OdpSetup.CLIENT, OdpSetup.SERVER,
                                     OdpSetup.BOTH])
    def test_fig09_shapes(self, odp):
        """Window-1 flood points for each faulting side, coalesce on vs
        off."""
        kwargs = dict(num_qps=50, num_ops=512) if odp is OdpSetup.CLIENT \
            else dict(num_qps=25, num_ops=256)
        off = run_microbench(_flood_config(False, odp=odp, **kwargs))
        on = run_microbench(_flood_config(True, odp=odp, **kwargs))
        assert _metrics(off) == _metrics(on)

    def test_composes_with_storm_coalescing(self):
        """Fleet sweeps, blind rounds and joint rounds all engage in one
        run and still match the per-packet run — the tiers must not
        double-apply anything."""
        def cfg(coalesce):
            return MicrobenchConfig(size=400, num_ops=1024, num_qps=256,
                                    interval_us=0.0, odp=OdpSetup.CLIENT,
                                    integrity=False, seed=50,
                                    max_rd_atomic=1, coalesce=coalesce)
        clusters = []
        on = run_microbench(cfg(True), on_cluster=clusters.append)
        off = run_microbench(cfg(False))
        coalescers = [qp.coalescer for node in clusters[0].nodes
                      for qp in node.rnic._qps.values()]
        assert sum(c.fleet_rounds for c in coalescers) > 0
        assert sum(c.joint_rounds for c in coalescers) > 0
        assert on.coalesced_rounds > 0
        assert off.coalesced_rounds == 0
        assert _metrics(on) == _metrics(off)
