"""Multi-tenant RDMA service tier: shared-RNIC tenant multiplexing.

The paper measures what one misbehaving ODP workload does to its own
RNIC; this package measures what it does to *everyone else* on that
RNIC.  A :class:`~repro.service.tenant.TenantRegistry` of frozen,
hashable tenant configs (name, seed, MR mode, mitigation strategy,
arrival process, workload mix) is multiplexed over one shared
RNIC pair by a :class:`~repro.service.tier.ServiceCell`: every tenant
gets its own PD/MRs/QPs and an open-loop arrival-driven workload, but
all of them contend on the same links, the same responder, and — the
interference channel the paper's Section VI identifies — the same
serializing page-status engine.

Three service workloads (:mod:`repro.service.workloads`):

* ``kv`` — a READ-mostly KV/object store with fan-out GETs and a UD
  connection-setup handshake;
* ``collective`` — MPI-RMA-style messaging with an eager/rendezvous
  crossover at a configurable message-size threshold (the MPICH2/MVAPICH
  protocol switch);
* ``shuffle`` — a parameter-server/shuffle mix shaped on the spark
  engine's round structure.

The headline artifact is the **interference matrix**
(:mod:`repro.service.interference`): per-tenant p50/p99/p999 latency,
throughput, and stall-time *attribution* — which tenant's
damming/flood episode (found by ``telemetry.diagnose``) stalled which
victim tenant's operations.  ``python -m repro tenants`` renders it;
``tests/test_service.py`` checks that an ODP-flooding tenant measurably
degrades a pinned neighbour under ``mitigation="none"`` and that a
per-tenant strategy contains the aggressor's episodes.

Fleet scale (:mod:`repro.service.fleet`): a ``TenantFleetConfig``
partitions many tenants into shared-RNIC cells (one per QP group) and
rides :func:`repro.experiments.shard.run_fleet`, so thousand-tenant
configurations shard across processes bit-identically.
"""

from repro.service.tenant import (ArrivalSpec, TenantRegistry, TenantSpec,
                                  tenant_seed)
from repro.service.tier import (CellResult, ServiceCell, ServiceCellConfig,
                                TenantResult, run_cell)
from repro.service.interference import MatrixReport, run_tenant_matrix

__all__ = [
    "ArrivalSpec", "TenantSpec", "TenantRegistry", "tenant_seed",
    "ServiceCell", "ServiceCellConfig", "CellResult", "TenantResult",
    "run_cell", "MatrixReport", "run_tenant_matrix",
]
