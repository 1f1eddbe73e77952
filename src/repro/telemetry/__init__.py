"""Telemetry: hardware-style counters, event tracing, export, diagnosis.

The subsystem has four layers (each its own module) plus this facade:

* :mod:`repro.telemetry.counters` — hierarchical counter registry with
  per-RNIC/per-QP counters mirroring real mlx5 names, *harvested* from
  the statistics components already keep (zero cost until asked);
* :mod:`repro.telemetry.trace` — bounded-ring event tracer of typed
  spans and instants, written by guarded hooks on per-round/per-op
  paths only (components hold the tracer directly; a ``None`` check is
  the entire disabled-mode cost);
* :mod:`repro.telemetry.export` — Chrome/Perfetto trace JSON and
  ``ibdump``-compatible pcap writers;
* :mod:`repro.telemetry.diagnose` — detects packet-damming and
  packet-flood episodes from counters and traces alone.

Quickstart::

    from repro.telemetry import Telemetry
    from repro.bench.microbench import MicrobenchConfig, run_microbench

    tel = Telemetry()
    result = run_microbench(MicrobenchConfig(..., telemetry=tel))
    print(tel.counters().render())
    print(tel.diagnose().render())
    tel.write_chrome_trace("trace.json")

or, for entry points that build their own clusters (CLI figures)::

    with telemetry_session() as tel:
        run_fig04(...)
    print(tel.diagnose().render())

Telemetry is **off by default**: no component holds a tracer until
:meth:`Telemetry.attach` runs, experiment outputs are bit-identical
either way, and enabling it costs ≤5% (``bench/tracebench.py`` gates
the cost in reference seconds, and the bit-identity of its metrics).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List, Optional

from repro.host.cluster import Cluster
from repro.telemetry.counters import (EXEC_PREFIX, CounterRegistry,
                                      collect_counters)
from repro.telemetry.diagnose import (DammingEpisode, Diagnosis,
                                      FloodEpisode, diagnose)
from repro.telemetry.trace import EventTracer, TraceEvent
from repro.telemetry import export

__all__ = [
    "Telemetry", "telemetry_session", "EventTracer", "TraceEvent",
    "CounterRegistry", "collect_counters", "EXEC_PREFIX", "Diagnosis",
    "DammingEpisode", "FloodEpisode", "diagnose", "export",
]


class Telemetry:
    """One observability session: a tracer plus the clusters it watches.

    Components get the :class:`EventTracer` itself (one attribute hop on
    the hot path, ``None`` when disabled); the facade keeps the cluster
    list so counters can be harvested on demand and adds host-side
    conveniences (export, diagnosis).
    """

    def __init__(self, capacity: int = 1 << 16, per_qp: bool = True):
        self.tracer = EventTracer(capacity)
        self.per_qp = per_qp
        self.clusters: List[Cluster] = []

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def attach(self, cluster: Cluster) -> Cluster:
        """Hand the tracer to every instrumented component of ``cluster``.

        Idempotent; returns the cluster for chaining.  Requester and
        responder hooks reach the tracer through ``qp.rnic.telemetry``,
        so QPs rebuilt by ``to_reset()`` stay instrumented for free.
        """
        if any(c is cluster for c in self.clusters):
            return cluster
        for node in cluster.nodes:
            rnic = node.rnic
            rnic.telemetry = self.tracer
            rnic.status_engine.telemetry = self.tracer
            rnic.status_engine.telemetry_lid = rnic.lid
            node.driver.telemetry = self.tracer
        self.clusters.append(cluster)
        return cluster

    # ------------------------------------------------------------------
    # Harvest / analysis
    # ------------------------------------------------------------------

    def counters(self, registry: Optional[CounterRegistry] = None
                 ) -> CounterRegistry:
        """Harvest a counter snapshot from every attached cluster."""
        return collect_counters(self.clusters, per_qp=self.per_qp,
                                registry=registry)

    def diagnose(self, **kwargs) -> Diagnosis:
        """Run the pitfall-diagnosis engine over the traced stream."""
        return diagnose(self.tracer, **kwargs)

    def fingerprint(self) -> str:
        """The tracer's stream hash (coalesce on/off must agree)."""
        return self.tracer.fingerprint()

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def write_chrome_trace(self, path: str,
                           include_counters: bool = True) -> int:
        """Export the trace as Perfetto-loadable JSON; returns #events."""
        counters = self.counters().as_dict() if include_counters else None
        return export.write_chrome_trace(path, self.tracer, counters)


@contextmanager
def telemetry_session(telemetry: Optional[Telemetry] = None,
                      capacity: int = 1 << 16) -> Iterator[Telemetry]:
    """Attach a :class:`Telemetry` to every cluster built in the block.

    Chains (never clobbers) any :attr:`Cluster.instrument` hook already
    installed, and restores it on exit.  Pool workers do not inherit
    the hook, so while it is armed ``runner.sweep`` runs serially and
    ``shard.run_fleet`` plans one in-process shard: every cluster, each
    fleet group's included, is observed.
    """
    tel = telemetry if telemetry is not None else Telemetry(capacity)
    previous = Cluster.instrument

    def _hook(cluster: Cluster) -> None:
        if previous is not None:
            previous(cluster)
        tel.attach(cluster)

    Cluster.instrument = _hook
    try:
        yield tel
    finally:
        Cluster.instrument = previous
