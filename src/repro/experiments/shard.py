"""Fleet execution: independent client/server QP groups, merged exactly.

A fleet is a different machine, not a faster run of one cell.  Each
group is a hermetic :class:`~repro.sim.engine.Simulator` with its own
client and server RNIC, so a cell split into ``G`` groups also splits
the page-status-engine contention that produces the paper's flood: the
Table 13 SparkTC ratio on Reedbush-H is 5.83 as one 1280-QP cell and
2.33 as four 320-QP groups.  Fleet numbers form their own family; no
result here is comparable to, or a speed-up of, the monolithic cell.

What the layer does guarantee is placement invariance.  Groups run in
process or packed onto worker processes, and the partial results merge
**deterministically**: counters summed in canonical key order,
completions k-way merged by ``(time, group, arrival order)``,
telemetry fingerprints combined in canonical group order.  The merged
output is bit-identical whatever the shard count or worker scheduling
(tested).

Groups are disjoint by construction
-----------------------------------

The fabric's only serialising resources are the per-LID link directions
(:class:`repro.net.link.LinkEnd` transmitters); the crossbar switch
applies a fixed cut-through latency with no cross-port contention.  A
:class:`GroupSpec` derives its LIDs from its index — group ``g`` owns
``2g+1`` (client) and ``2g+2`` (server) — so no two groups share a
link, and per-QP go-back-N state shares nothing across QP pairs.  Each
group owns its private RNG stream (its ``Simulator`` is seeded from
:func:`group_seed`), so any packing of groups onto shards is exact.

Fallback, not silent loss: while the process-wide
``Cluster.instrument`` hook is armed (chaos smoke gates, invariant
monitors), the plan collapses to one in-process shard and records why
— results stay correct, only the parallelism is declined.

A fleet config class carries its :class:`FleetWorkload` in a
``fleet_workload`` class attribute: the three workload-specific
operations — splitting a config into :class:`GroupSpec` s, running one
group, and merging the per-group results.  Two workloads exist:
:mod:`repro.apps.spark.fleet` (a Table 13 cell as QP groups) and
:mod:`repro.service.fleet` (whole copies of a tenant cell).  The
planner, the worker entry point, the hazard contract and the counter
and fingerprint merge are shared.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, FrozenSet, Iterable, List,
                    Optional, Sequence, Tuple)

from repro.experiments import runner

#: Per-group seed mix: ``seed * stride + index`` keeps every group's
#: private RNG stream distinct per fleet seed and per group, with no
#: collisions for any realistic group count (stride >> groups).
GROUP_SEED_STRIDE = 1_000_003

#: Collection flags accepted by :func:`run_fleet`.
COLLECT_COUNTERS = "counters"
COLLECT_FINGERPRINT = "fingerprint"
_KNOWN_COLLECT = frozenset((COLLECT_COUNTERS, COLLECT_FINGERPRINT))


def group_seed(seed: int, index: int) -> int:
    """The simulator seed of fleet group ``index``."""
    return seed * GROUP_SEED_STRIDE + index


@dataclass(frozen=True)
class FleetWorkload:
    """The three operations a fleet workload must provide.

    ``groups(config)`` splits a config into :class:`GroupSpec` s;
    ``run_group(spec, base_config, collect)`` runs one group and
    returns a :class:`GroupResult`; ``merge(config, group_results)``
    folds the ordered per-group results into the workload's own result
    type.  Everything else — planning, hazard fallback, worker
    dispatch, counter/fingerprint merge — is workload-independent and
    shared.  A shard worker reaches the workload by unpickling the
    config, which imports the config's module.
    """

    groups: Callable[[Any], List["GroupSpec"]]
    run_group: Callable[[Any, Any, FrozenSet[str]], "GroupResult"]
    merge: Callable[[Any, Sequence["GroupResult"]], Any]


@dataclass(frozen=True)
class GroupSpec:
    """One QP group of a fleet: a client/server pair and its slice of
    the workload.  Picklable — this is what ships to a shard worker."""

    index: int        # canonical merge position (0-based, contiguous)
    num_qps: int
    num_ops: int
    wr_base: int      # global wr_id of this group's op 0
    seed: int         # the group simulator's private RNG seed

    @property
    def client_lid(self) -> int:
        """Fleet-global client LID (group-local sims use 1 and 2)."""
        return 2 * self.index + 1

    @property
    def server_lid(self) -> int:
        return 2 * self.index + 2


def group_specs(seed: int, sizes: Iterable[Tuple[int, int]]
                ) -> List[GroupSpec]:
    """One :class:`GroupSpec` per ``(num_qps, num_ops)`` in ``sizes``,
    with contiguous wr_id ranges and per-group seeds."""
    specs = []
    wr_base = 0
    for index, (num_qps, num_ops) in enumerate(sizes):
        specs.append(GroupSpec(index=index, num_qps=num_qps,
                               num_ops=num_ops, wr_base=wr_base,
                               seed=group_seed(seed, index)))
        wr_base += num_ops
    return specs


class ShardPlanError(ValueError):
    """A fleet spec that cannot be planned (bad divisibility, bad
    group indices)."""


@dataclass(frozen=True)
class ShardPlan:
    """The planner's verdict: which groups run in which worker.

    ``shards`` is a tuple of group-index tuples, one per worker, every
    group exactly once.  ``reason`` is empty when the requested width
    was granted, otherwise one line saying why the plan is narrower.
    """

    shards: Tuple[Tuple[int, ...], ...]
    requested: int
    reason: str = ""

    @property
    def pooled(self) -> bool:
        """True when the plan actually fans out to worker processes."""
        return len(self.shards) > 1

    def describe(self) -> str:
        groups = sum(len(shard) for shard in self.shards)
        note = f" ({self.reason})" if self.reason else ""
        return (f"{len(self.shards)}/{self.requested} shard(s) over "
                f"{groups} group(s){note}")


def plan_shards(groups: Sequence[GroupSpec], shards: int,
                hazards: Sequence[str] = ()) -> ShardPlan:
    """Pack ``groups`` onto at most ``shards`` workers.

    Packing is deterministic: groups in canonical order (heaviest QP
    count first, ties by smallest index) go to the currently lightest
    shard (ties by lowest shard number).  Hazard strings — process-wide
    observers workers cannot inherit — force the single-shard fallback
    outright.
    """
    if not groups:
        raise ShardPlanError("empty fleet: no QP groups to plan")
    indices = sorted(spec.index for spec in groups)
    if indices != list(range(len(groups))):
        raise ShardPlanError(f"group indices must be 0..{len(groups) - 1} "
                             f"exactly once, got {indices}")
    requested = max(1, int(shards))
    if hazards:
        return ShardPlan(shards=(tuple(indices),), requested=requested,
                         reason="; ".join(hazards))
    width = min(requested, len(groups))
    reason = ""
    if width < requested:
        reason = (f"only {len(groups)} group(s) for {requested} "
                  f"requested shard(s)")
    # Heaviest-first greedy into the lightest bin: deterministic and
    # balanced.  Weight is QP count (simulation cost scales with it).
    order = sorted(groups, key=lambda spec: (-spec.num_qps, spec.index))
    bins: List[List[int]] = [[] for _ in range(width)]
    weights = [0] * width
    for spec in order:
        target = min(range(width), key=lambda b: (weights[b], b))
        bins[target].append(spec.index)
        weights[target] += spec.num_qps
    packed = tuple(tuple(sorted(bin_)) for bin_ in bins if bin_)
    return ShardPlan(shards=packed, requested=requested, reason=reason)


def fleet_hazards() -> List[str]:
    """Process-wide observers that force the in-process fallback.

    Worker subprocesses do not inherit the :attr:`Cluster.instrument`
    hook (chaos smoke gates, invariant monitors), so planning around it
    would silently drop instrumentation — the same rule
    :func:`runner.serial_forced` applies to every sweep while the hook
    is armed.
    """
    from repro.host.cluster import Cluster

    if Cluster.instrument is not None:
        return ["Cluster.instrument hook armed "
                "(does not cross process boundaries)"]
    return []


# ----------------------------------------------------------------------
# Shard worker
# ----------------------------------------------------------------------

@dataclass
class GroupResult:
    """One group's picklable partial results, LIDs already globalised."""

    index: int
    result: Any  # the workload's own per-group partial
    counters: Optional[Tuple[Tuple[Tuple[str, str], int], ...]] = None
    fingerprint: Optional[str] = None


def _relabel_scope(scope: str, lid_map: Dict[int, int]) -> str:
    """Map a group-local counter scope (``rnic1``, ``rnic2.qp64``,
    ``tenant.kv-a.rnic1.qp64``) to fleet-global LIDs; non-RNIC scopes
    (``fabric``) pass through.

    Tenant-namespaced scopes embed the RNIC segment after the dot-free
    tenant name (the grammar :mod:`repro.service.tenant` enforces), so
    splitting on the last ``.rnic`` is unambiguous.
    """
    prefix = ""
    if scope.startswith("tenant."):
        head, sep, tail = scope.rpartition(".rnic")
        if not sep:
            return scope
        prefix, scope = head + ".", "rnic" + tail
    if not scope.startswith("rnic"):
        return prefix + scope
    head, dot, tail = scope.partition(".")
    try:
        local = int(head[len("rnic"):])
    except ValueError:
        return prefix + scope
    return f"{prefix}rnic{lid_map[local]}{dot}{tail}"


def run_shard(args: Tuple) -> List[GroupResult]:
    """Worker entry: rebuild and run every group of one shard.

    Module-level and fed picklable tuples, as :func:`runner.sweep`
    requires.  ``args`` is ``(specs, base_config, collect)``, as built
    by :func:`shard_args`.  Unpickling ``base_config`` imports its
    module, and with it the config's workload, so application modules
    (spark) import only where their groups actually run.
    Groups run sequentially in spec order; each builds its own cluster
    (which restarts packet serial numbering), so a group's bytes are
    identical whether its neighbour ran in this process, in another
    worker, or not at all.
    """
    specs, base_config, collect = args
    run_group = base_config.fleet_workload.run_group
    return [run_group(spec, base_config, frozenset(collect))
            for spec in specs]


# ----------------------------------------------------------------------
# Deterministic merge
# ----------------------------------------------------------------------

def merge_completions(ordered: Sequence[GroupResult]) -> List:
    """K-way merge of per-group ``(wr_id, time, status)`` completions by
    ``(completion time, group, arrival order)``."""
    keyed = []
    for group in ordered:
        for position, completion in enumerate(group.result.completions):
            keyed.append(((completion[1], group.index, position),
                          completion))
    keyed.sort(key=lambda pair: pair[0])
    return [completion for _key, completion in keyed]


def _ordered(group_results: Sequence[GroupResult]) -> List[GroupResult]:
    ordered = sorted(group_results, key=lambda group: group.index)
    indices = [group.index for group in ordered]
    if indices != list(range(len(ordered))):
        raise ShardPlanError(f"merge needs each group exactly once, "
                             f"got indices {indices}")
    return ordered


def fleet_fingerprint(fingerprints: Sequence[Optional[str]]) -> str:
    """Combine per-group telemetry fingerprints, canonically.

    Each group's tracer stream is private to its own simulator, so its
    fingerprint is shard-invariant by construction; hashing them in
    group order makes the fleet fingerprint shard-invariant too.  A
    group that traced nothing contributes a fixed sentinel.
    """
    digest = hashlib.sha256()
    for index, print_ in enumerate(fingerprints):
        digest.update(f"{index}:{print_ or '-'}\n".encode())
    return digest.hexdigest()


# ----------------------------------------------------------------------
# The fleet entry point
# ----------------------------------------------------------------------

@dataclass
class FleetResult:
    """A merged fleet run plus how it was executed."""

    result: Any                      # merged workload result
    plan: ShardPlan
    counters: Optional[Any] = None   # merged CounterRegistry
    fingerprint: Optional[str] = None
    groups: List[GroupResult] = field(default_factory=list)


def _check_collect(collect: Iterable[str]) -> FrozenSet[str]:
    collect_set = frozenset(collect)
    unknown = collect_set - _KNOWN_COLLECT
    if unknown:
        raise ValueError(f"unknown collect flag(s): {sorted(unknown)}; "
                         f"expected a subset of {sorted(_KNOWN_COLLECT)}")
    return collect_set


def plan_fleet(config, shards: Optional[int] = None
               ) -> Tuple[FleetWorkload, List[GroupSpec], ShardPlan]:
    """Resolve a fleet config to (workload, groups, plan) without
    running anything — :func:`run_fleet` and the perfbench shard
    accounting plan this way before dispatching shards."""
    workload = config.fleet_workload
    groups = workload.groups(config)
    requested = int(config.shards if shards is None else shards)
    if requested == 0:
        requested = runner.default_jobs()
    plan = plan_shards(groups, requested, fleet_hazards())
    return workload, groups, plan


def merge_fleet(config, group_results: Sequence[GroupResult],
                plan: ShardPlan, collect: Iterable[str] = (),
                workload: Optional[FleetWorkload] = None) -> FleetResult:
    """Fold per-group partials into a :class:`FleetResult`.

    The workload merges its own result type; counters and fingerprints
    merge identically for every workload.  Shared by :func:`run_fleet`
    and the perfbench shard accounting, which collects the same
    :class:`GroupResult` s through its own pool.  ``groups`` lists the
    partials in group order, whatever order the shards returned them.
    """
    collect_set = _check_collect(collect)
    if workload is None:
        workload = config.fleet_workload
    ordered = _ordered(group_results)
    merged = workload.merge(config, ordered)
    counters = None
    if COLLECT_COUNTERS in collect_set:
        from repro.telemetry.counters import merge_counter_items
        counters = merge_counter_items(group.counters or ()
                                       for group in ordered)
    fingerprint = None
    if COLLECT_FINGERPRINT in collect_set:
        fingerprint = fleet_fingerprint(
            [group.fingerprint for group in ordered])
    return FleetResult(result=merged, plan=plan, counters=counters,
                       fingerprint=fingerprint, groups=ordered)


def shard_args(groups: Sequence[GroupSpec], plan: ShardPlan, config,
               collect: Iterable[str] = ()) -> List[Tuple]:
    """The picklable :func:`run_shard` argument tuples for a plan."""
    collect = tuple(sorted(_check_collect(collect)))
    return [(tuple(groups[i] for i in shard), config, collect)
            for shard in plan.shards]


def run_fleet(config, shards: Optional[int] = None,
              collect: Iterable[str] = ()) -> FleetResult:
    """Execute a fleet config across shard workers and merge exactly.

    ``shards`` overrides ``config.shards``; 0 means "one worker per
    usable core".  ``collect`` names extra artifacts to gather per
    group and merge: ``"counters"`` and ``"fingerprint"``.

    Inside a sweep worker or under ``REPRO_SERIAL`` the groups run
    in-process, one after another.

    The merged result is bit-identical for every shard count and every
    ``REPRO_JOBS`` value — each group is a hermetic simulation, so
    execution placement cannot leak into results; only wall-clock
    changes.
    """
    collect_set = _check_collect(collect)
    workload, groups, plan = plan_fleet(config, shards)
    if plan.pooled and not runner.serial_forced():
        shard_lists = runner.sweep(run_shard,
                                   shard_args(groups, plan, config,
                                              collect_set),
                                   processes=len(plan.shards))
        group_results = [group for shard in shard_lists for group in shard]
    else:
        group_results = [workload.run_group(spec, config, collect_set)
                         for spec in groups]
    return merge_fleet(config, group_results, plan, collect_set, workload)
