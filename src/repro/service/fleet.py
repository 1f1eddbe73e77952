"""Fleet-scale tenant matrices: service cells sharded over QP groups.

One service cell is one shared RNIC pair — interference is an
*intra-cell* effect (the link directions and the page-status engine of
one RNIC are the contended resources).  Scaling the tenant count
therefore means scaling the number of *cells*, and cells at distinct
LID pairs never interact.  This module defines the tenants fleet
workload: the registry's tenants chunk contiguously into cells of
``cell_size``, cell ``g`` owns fleet LIDs ``2g+1``/``2g+2`` (derived
by :class:`~repro.experiments.shard.GroupSpec`) and its own
:class:`~repro.service.tier.ServiceCell` seeded from
:func:`~repro.experiments.shard.group_seed`, and the merge unions the
per-cell tenant results (names are fleet-unique), relabels episode and
counter LIDs to fleet-global values, and combines fingerprints in
canonical cell order.  The merged :class:`CellResult` is bit-identical
for every ``--shards`` value and any ``REPRO_JOBS`` (tested).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, ClassVar, Dict, FrozenSet, List, Sequence, Tuple

from repro.experiments.shard import (
    COLLECT_COUNTERS,
    FleetWorkload,
    GroupResult,
    GroupSpec,
    ShardPlanError,
    _relabel_scope,
    fleet_fingerprint,
    group_specs,
)
from repro.service.tenant import TenantSpec
from repro.service.tier import CellResult, ServiceCellConfig, run_cell


@dataclass(frozen=True)
class TenantFleetConfig:
    """A multi-cell tenant fleet.

    ``tenants`` chunk contiguously into ``num_groups`` cells of
    ``cell_size`` each (``cell_size * num_groups == len(tenants)``), so
    a mix replicated N times lands one copy per cell — tenant count
    scales without diluting the per-RNIC contention that produces the
    interference.  Cell knobs (device, QP attributes, post overhead)
    ride along unchanged into every cell's
    :class:`~repro.service.tier.ServiceCellConfig`.
    """

    tenants: Tuple[TenantSpec, ...]
    seed: int = 0
    num_groups: int = 1
    cell_size: int = 0    # 0: len(tenants) // num_groups
    shards: int = 1
    device: str = "ConnectX-4"
    post_overhead_ns: int = 300

    # set below; a class attribute, not a dataclass field, so
    # replace()/pickle round-trips leave it alone
    fleet_workload: ClassVar[FleetWorkload]

    def resolved_cell_size(self) -> int:
        if self.cell_size:
            return int(self.cell_size)
        groups = max(1, int(self.num_groups))
        if len(self.tenants) % groups:
            raise ShardPlanError(
                f"num_groups={groups} does not divide "
                f"{len(self.tenants)} tenants; pass cell_size explicitly")
        return len(self.tenants) // groups

    def cell_tenants(self, index: int) -> Tuple[TenantSpec, ...]:
        """Cell ``index``'s contiguous tenant slice."""
        size = self.resolved_cell_size()
        return self.tenants[index * size:(index + 1) * size]


def tenant_groups(config: TenantFleetConfig) -> List[GroupSpec]:
    """Split a tenant fleet into its cells (one QP group per cell)."""
    num_groups = int(config.num_groups)
    if num_groups < 1:
        raise ShardPlanError(f"num_groups must be >= 1, got {num_groups}")
    size = config.resolved_cell_size()
    if size < 1 or size * num_groups != len(config.tenants):
        raise ShardPlanError(
            f"cell_size={size} x num_groups={num_groups} must equal "
            f"{len(config.tenants)} tenants exactly")
    names = [spec.name for spec in config.tenants]
    if len(set(names)) != len(names):
        raise ShardPlanError("tenant names must be fleet-unique for the "
                             "merge to union per-tenant results")
    chunks = [config.cell_tenants(g) for g in range(num_groups)]
    return group_specs(config.seed,
                       [(sum(spec.num_qps for spec in chunk),
                         sum(spec.num_ops for spec in chunk))
                        for chunk in chunks])


def _relabel_cell(cell: CellResult, lid_map: Dict[int, int]) -> CellResult:
    """Map a cell's group-local LIDs (1/2) to fleet-global values in
    every LID-bearing artifact: episodes, QP ownership, counters."""
    damming = tuple(dataclasses.replace(e, lid=lid_map.get(e.lid, e.lid))
                    for e in cell.damming)
    flood = tuple(dataclasses.replace(
        e, victims=tuple((lid_map.get(lid, lid), qpn)
                         for lid, qpn in e.victims))
        for e in cell.flood)
    qp_owner = {(lid_map.get(lid, lid), qpn): owner
                for (lid, qpn), owner in cell.qp_owner.items()}
    counters = tuple(((_relabel_scope(scope, lid_map), name), value)
                     for (scope, name), value in cell.counters)
    return dataclasses.replace(cell, damming=damming, flood=flood,
                               qp_owner=qp_owner, counters=counters)


def _run_tenant_group(spec: GroupSpec, base_config: TenantFleetConfig,
                      collect: FrozenSet[str]) -> GroupResult:
    """Run one cell and bundle its partials, LIDs globalised.

    The cell attaches its own telemetry session internally (episodes
    and the fingerprint are part of a :class:`CellResult`), so the
    fleet path needs no session of its own — which is also why it
    shards cleanly: nothing observational crosses the process boundary.
    """
    cell_config = ServiceCellConfig(
        tenants=base_config.cell_tenants(spec.index), seed=spec.seed,
        device=base_config.device,
        post_overhead_ns=base_config.post_overhead_ns)
    cell = _relabel_cell(run_cell(cell_config),
                         {1: spec.client_lid, 2: spec.server_lid})
    counters = cell.counters if COLLECT_COUNTERS in collect else None
    return GroupResult(index=spec.index, result=cell, counters=counters,
                       fingerprint=cell.fingerprint)


def merge_tenants(config: TenantFleetConfig,
                  group_results: Sequence[GroupResult]) -> CellResult:
    """Union per-cell results into one fleet-wide :class:`CellResult`.

    Cells are disjoint (distinct LID pairs, distinct tenant names), so
    the merge is a pure union: tenant results and attribution rows
    concatenate, episodes sort by ``(start, lid)``, counters sum in
    canonical key order via the shard layer, the fleet fingerprint is
    the canonical combination of per-cell fingerprints, and execution
    time is the critical path over cells.  ``group_results`` arrive in
    group order.
    """
    cells: List[CellResult] = [group.result for group in group_results]
    tenants: Dict[str, Any] = {}
    qp_owner: Dict[Tuple[int, int], str] = {}
    attribution: Dict[str, Dict[str, int]] = {}
    damming: List[Any] = []
    flood: List[Any] = []
    counters: List[Any] = []
    for cell in cells:
        for name, tenant in cell.tenants.items():
            if name in tenants:
                raise ShardPlanError(f"tenant {name!r} appears in two "
                                     "cells; names must be fleet-unique")
            tenants[name] = tenant
        qp_owner.update(cell.qp_owner)
        attribution.update(cell.attribution)
        damming.extend(cell.damming)
        flood.extend(cell.flood)
        counters.extend(cell.counters)
    damming.sort(key=lambda e: (e.start_ns, e.lid, e.victim_qpn))
    flood.sort(key=lambda e: (e.start_ns, e.victims))
    return CellResult(
        tenants=tenants,
        damming=tuple(damming),
        flood=tuple(flood),
        qp_owner=qp_owner,
        attribution=attribution,
        counters=tuple(sorted(counters)),
        fingerprint=fleet_fingerprint([group.fingerprint
                                       for group in group_results]),
        execution_ns=max(cell.execution_ns for cell in cells),
        total_packets=sum(cell.total_packets for cell in cells),
    )


TenantFleetConfig.fleet_workload = FleetWorkload(groups=tenant_groups,
                                                 run_group=_run_tenant_group,
                                                 merge=merge_tenants)
