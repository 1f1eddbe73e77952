"""Shard-parallel fabric execution: QP-group sharding with exact merge.

The paper's worst pitfalls only bite at fleet scale (the tab13 Spark
degradation, fig09's flood at thousands of stale QPs), but one Python
process is a hard ceiling however fast its storm fast paths are.  This
module adds the tier above :mod:`repro.ib.transport.coalesce`: a fleet
workload is *partitioned into QP-group shards* — client/server pairs
that provably never share a link-arbitration dependency — and each
shard runs as a full :class:`~repro.sim.engine.Simulator` instance in
a worker process.  The partial results are
then merged **deterministically**: counters summed in canonical key
order, completions and capture rows k-way merged by
``(timestamp, lid, qpn, serial)``-equivalent keys, telemetry
fingerprints combined in canonical group order.  The merged output is
bit-identical whatever the shard count or worker scheduling — 1, 2 and
8 shards produce the same bytes (tested).

Why the partition is exact
--------------------------

The fabric's only serialising resources are the per-LID link directions
(:class:`repro.net.link.LinkEnd` transmitters); the crossbar switch
applies a fixed cut-through latency with no cross-port contention
(:class:`repro.net.switch.Switch`).  Traffic between LID pair ``(a, b)``
therefore only ever occupies the four link ends of ``a`` and ``b`` —
two QP groups interact **iff their LID sets intersect**.  The fabric
exports this contract directly (:meth:`repro.net.network.Network.serializers`
enumerates a LID's arbitration points;
:meth:`~repro.net.network.Network.independent` checks two LID sets share
none), and the tests assert it against a live topology.  The planner
(:func:`plan_shards`) builds exactly that interference graph and unions
groups into arbitration components; disjoint components share *nothing*
(per-QP go-back-N state shares nothing across QP pairs), so simulating
them in separate engines is not an approximation but a refactoring of
one big event loop into independent ones.

Each group owns its private RNG stream (its ``Simulator`` is seeded
from :func:`group_seed`), which is what makes the decomposition closed:
a monolithic simulator interleaving all groups through *one* Mersenne
stream would entangle otherwise-independent QPs through draw order.
The fleet workload is therefore **defined** over per-group streams —
the same definition whether one process runs every group or eight
workers split them.

Fallback, not silent mis-merge: when every group lands in one
arbitration component (all QPs contending on a shared switch port, the
classic single-pair microbench), or when a process-wide observer is
armed (``Cluster.instrument``, an attached telemetry session), the plan
collapses to one in-process shard and records why — results stay
correct, only the parallelism is declined.

Fleet workloads are pluggable: a config class names its workload via a
``fleet_workload`` attribute (default ``"microbench"``), and the
registry maps that name to the three workload-specific operations —
splitting a config into :class:`GroupSpec` s, running one group, and
merging the per-group results.  The planner, the worker entry point,
the hazard contract and the artifact merge (counters, fingerprints,
capture) are shared.  ``"spark"``
(:mod:`repro.apps.spark.fleet`) reuses all of it to scale the tab13
mini-Spark workload to 10k+ QPs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
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
COLLECT_CAPTURE = "capture"
COLLECT_RECORDS = "records"
_KNOWN_COLLECT = frozenset((COLLECT_COUNTERS, COLLECT_FINGERPRINT,
                            COLLECT_CAPTURE, COLLECT_RECORDS))


def group_seed(seed: int, index: int) -> int:
    """The simulator seed of fleet group ``index``."""
    return seed * GROUP_SEED_STRIDE + index


# ----------------------------------------------------------------------
# Workload registry
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FleetWorkload:
    """The three operations a fleet workload must provide.

    ``groups(config)`` splits a config into :class:`GroupSpec` s;
    ``run_group(spec, base_config, collect, telemetry=None)`` runs one
    group and returns a :class:`GroupResult`; ``merge(config,
    group_results)`` folds the ordered per-group results into the
    workload's own result type.  Everything else — planning, hazard
    fallback, worker dispatch, counter/fingerprint/capture merge — is
    workload-independent and shared.
    """

    name: str
    groups: Callable[[Any], List["GroupSpec"]]
    run_group: Callable[..., "GroupResult"]
    merge: Callable[[Any, Sequence["GroupResult"]], Any]


_WORKLOADS: Dict[str, FleetWorkload] = {}

#: Workloads registered on import of their home module.  Lazy so the
#: shard layer never drags application packages in, and so a worker
#: process resolving a shard of either kind imports only what it runs.
_WORKLOAD_MODULES = {
    "spark": "repro.apps.spark.fleet",
    "tenants": "repro.service.fleet",
}


def register_fleet_workload(workload: FleetWorkload) -> None:
    """Make a workload resolvable by name (idempotent re-registration
    with the same module's object is fine — import order varies)."""
    _WORKLOADS[workload.name] = workload


def get_fleet_workload(name: str) -> FleetWorkload:
    """Resolve a workload name, importing its home module on demand."""
    if name not in _WORKLOADS:
        module = _WORKLOAD_MODULES.get(name)
        if module is not None:
            importlib.import_module(module)
    try:
        return _WORKLOADS[name]
    except KeyError:
        known = sorted(set(_WORKLOADS) | set(_WORKLOAD_MODULES))
        raise ShardPlanError(f"unknown fleet workload {name!r}; "
                             f"known: {known}") from None


def workload_name(config) -> str:
    """The workload a fleet config belongs to (``fleet_workload``
    attribute, default ``"microbench"``)."""
    return getattr(config, "fleet_workload", "microbench")


@dataclass(frozen=True)
class GroupSpec:
    """One QP group of a fleet: a client/server pair and its slice of
    the workload.  Picklable — this is what ships to a shard worker."""

    index: int        # canonical merge position (0-based, contiguous)
    client_lid: int   # fleet-global LIDs (group-local sims use 1 and 2)
    server_lid: int
    num_qps: int
    num_ops: int
    wr_base: int      # global wr_id of this group's op 0
    seed: int         # the group simulator's private RNG seed

    @property
    def lids(self) -> FrozenSet[int]:
        """The serialising fabric resources this group's traffic can
        occupy (see the module docstring's partition argument)."""
        return frozenset((self.client_lid, self.server_lid))


class ShardPlanError(ValueError):
    """A fleet spec that cannot be planned (bad divisibility, bad
    shard count, duplicate LIDs)."""


@dataclass(frozen=True)
class ShardPlan:
    """The planner's verdict: which groups run in which worker.

    ``shards`` is a tuple of group-index tuples, one per worker, every
    group exactly once.  ``components`` are the arbitration-independence
    classes the proof found (a shard never splits a component).
    ``reason`` is empty when the requested width was granted, otherwise
    one line saying why the plan is narrower.
    """

    shards: Tuple[Tuple[int, ...], ...]
    components: Tuple[Tuple[int, ...], ...]
    requested: int
    reason: str = ""

    @property
    def pooled(self) -> bool:
        """True when the plan actually fans out to worker processes."""
        return len(self.shards) > 1

    def describe(self) -> str:
        note = f" ({self.reason})" if self.reason else ""
        return (f"{len(self.shards)}/{self.requested} shard(s) over "
                f"{len(self.components)} independent component(s){note}")


def plan_shards(groups: Sequence[GroupSpec], shards: int,
                hazards: Sequence[str] = ()) -> ShardPlan:
    """Partition ``groups`` into at most ``shards`` independent shards.

    The independence proof: union any two groups whose LID sets
    intersect (they share a link transmitter and hence an arbitration
    dependency — see the module docstring for why disjoint LID sets
    share nothing).  The resulting components are atomic; a component
    is never split across workers, so a topology where every group
    contends on one switch port *refuses* to shard (one in-process
    shard, reason recorded) rather than silently mis-merging.

    Packing is deterministic: components in canonical order (heaviest
    QP count first, ties by smallest member index) go to the currently
    lightest shard (ties by lowest shard number).  Hazard strings —
    process-wide observers workers cannot inherit — force the
    single-shard fallback outright.
    """
    if not groups:
        raise ShardPlanError("empty fleet: no QP groups to plan")
    indices = sorted(spec.index for spec in groups)
    if indices != list(range(len(groups))):
        raise ShardPlanError(f"group indices must be 0..{len(groups) - 1} "
                             f"exactly once, got {indices}")
    seen_lids: Dict[int, int] = {}
    for spec in groups:
        if spec.client_lid == spec.server_lid:
            raise ShardPlanError(f"group {spec.index}: client and server "
                                 f"share LID {spec.client_lid}")
    requested = max(1, int(shards))

    # Union-find over groups, joined through shared LIDs.
    parent = list(range(len(groups)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    by_index = {spec.index: spec for spec in groups}
    for spec in groups:
        for lid in spec.lids:
            if lid in seen_lids:
                union(seen_lids[lid], spec.index)
            else:
                seen_lids[lid] = spec.index
    members: Dict[int, List[int]] = {}
    for index in range(len(groups)):
        members.setdefault(find(index), []).append(index)
    components = tuple(tuple(sorted(group_ids))
                       for _root, group_ids in sorted(members.items()))

    if hazards:
        return ShardPlan(shards=(tuple(range(len(groups))),),
                         components=components, requested=requested,
                         reason="; ".join(hazards))
    if len(components) == 1 and len(groups) > 1:
        return ShardPlan(shards=components, components=components,
                         requested=requested,
                         reason="all groups share one arbitration "
                                "component (shared switch port)")
    width = min(requested, len(components))
    reason = ""
    if width < requested:
        reason = (f"only {len(components)} independent component(s) "
                  f"for {requested} requested shard(s)")
    # Heaviest-first greedy into the lightest bin: deterministic and
    # balanced.  Weight is QP count (simulation cost scales with it).
    order = sorted(components,
                   key=lambda comp: (-sum(by_index[i].num_qps
                                          for i in comp), comp[0]))
    bins: List[List[int]] = [[] for _ in range(width)]
    weights = [0] * width
    for comp in order:
        target = min(range(width), key=lambda b: (weights[b], b))
        bins[target].extend(comp)
        weights[target] += sum(by_index[i].num_qps for i in comp)
    packed = tuple(tuple(sorted(bin_)) for bin_ in bins if bin_)
    return ShardPlan(shards=packed, components=components,
                     requested=requested, reason=reason)


# ----------------------------------------------------------------------
# Fleet spec from a microbench config
# ----------------------------------------------------------------------

def fleet_groups(config) -> List[GroupSpec]:
    """Split a :class:`~repro.bench.microbench.MicrobenchConfig` fleet
    into its QP groups.

    The fleet's QPs and ops distribute evenly — ``num_groups`` must
    divide both, so every group is the same shape and the merge needs
    no remainder bookkeeping.  Group ``g`` owns fleet-global LIDs
    ``2g+1`` (client) and ``2g+2`` (server): disjoint by construction,
    which is what the planner then *proves* rather than assumes.
    """
    num_groups = int(config.num_groups)
    if num_groups < 1:
        raise ShardPlanError(f"num_groups must be >= 1, got {num_groups}")
    if config.num_qps % num_groups:
        raise ShardPlanError(f"num_groups={num_groups} does not divide "
                             f"num_qps={config.num_qps}")
    if config.num_ops % num_groups:
        raise ShardPlanError(f"num_groups={num_groups} does not divide "
                             f"num_ops={config.num_ops}")
    qps = config.num_qps // num_groups
    ops = config.num_ops // num_groups
    return [GroupSpec(index=g, client_lid=2 * g + 1, server_lid=2 * g + 2,
                      num_qps=qps, num_ops=ops, wr_base=g * ops,
                      seed=group_seed(config.seed, g))
            for g in range(num_groups)]


def fleet_hazards(config) -> List[str]:
    """Process-wide observers that force the in-process fallback.

    Worker subprocesses inherit neither the :attr:`Cluster.instrument`
    hook (chaos smoke gates, invariant monitors) nor an attached
    telemetry session's tracer, so planning around them would silently
    drop instrumentation — the same rule :func:`runner.serial_forced`
    applies to every sweep while ``Cluster.instrument`` is armed.
    """
    from repro.host.cluster import Cluster

    hazards: List[str] = []
    if Cluster.instrument is not None:
        hazards.append("Cluster.instrument hook armed "
                       "(does not cross process boundaries)")
    if getattr(config, "telemetry", None) is not None:
        hazards.append("telemetry session attached "
                       "(tracer does not cross process boundaries)")
    return hazards


# ----------------------------------------------------------------------
# Shard worker
# ----------------------------------------------------------------------

@dataclass
class GroupResult:
    """One group's picklable partial results, LIDs already globalised."""

    index: int
    result: Any  # MicrobenchResult
    counters: Optional[Tuple[Tuple[Tuple[str, str], int], ...]] = None
    fingerprint: Optional[str] = None
    capture: Optional[Any] = None          # CaptureSummary
    records: Optional[List[Any]] = None    # List[CaptureRecord]


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


def _run_group(spec: GroupSpec, base_config, collect: FrozenSet[str],
               telemetry=None) -> GroupResult:
    """Run one QP group in its own simulator and bundle its results.

    ``base_config`` carries the fleet's knobs; the group overrides its
    own slice sizes and private seed.  LID-bearing artifacts (counter
    scopes, capture rows) are relabelled to the group's fleet-global
    LIDs here, so the merge never needs to know group-local numbering.
    """
    from repro.bench.microbench import run_microbench

    config = dataclasses.replace(base_config, num_qps=spec.num_qps,
                                 num_ops=spec.num_ops, seed=spec.seed,
                                 num_groups=1, shards=1,
                                 telemetry=telemetry)
    lid_map = {1: spec.client_lid, 2: spec.server_lid}
    sniffer = None
    clusters: List[Any] = []

    def on_cluster(cluster) -> None:
        nonlocal sniffer
        clusters.append(cluster)
        if COLLECT_CAPTURE in collect or COLLECT_RECORDS in collect:
            from repro.capture.sniffer import Sniffer
            sniffer = Sniffer(cluster.network)

    group_telemetry = None
    if telemetry is None and COLLECT_FINGERPRINT in collect:
        from repro.telemetry import Telemetry
        group_telemetry = Telemetry()
        config = dataclasses.replace(config, telemetry=group_telemetry)

    result = run_microbench(config, on_cluster=on_cluster)

    # Globalise completion wr_ids (group op i is fleet op wr_base + i)
    # and detach any telemetry session from the shipped config — it
    # holds the whole cluster graph, which must not cross the pickle
    # boundary back to the parent.
    result = dataclasses.replace(
        result,
        config=dataclasses.replace(config, telemetry=None),
        completions=[(spec.wr_base + wr_id, t, status)
                     for wr_id, t, status in result.completions])

    counters = None
    if COLLECT_COUNTERS in collect:
        # Harvest from this group's cluster only — never through a
        # shared telemetry session, whose cluster list spans groups.
        from repro.telemetry.counters import collect_counters
        registry = collect_counters(clusters)
        counters = tuple(((_relabel_scope(scope, lid_map), name), value)
                         for (scope, name), value
                         in sorted(registry.items()))
    fingerprint = None
    if COLLECT_FINGERPRINT in collect and group_telemetry is not None:
        fingerprint = group_telemetry.fingerprint()
    capture = records = None
    if sniffer is not None:
        recs = [dataclasses.replace(rec, src_lid=lid_map[rec.src_lid],
                                    dst_lid=lid_map[rec.dst_lid])
                for rec in sniffer.records]
        if COLLECT_CAPTURE in collect:
            from repro.capture.analyze import summarize_capture
            capture = summarize_capture(recs)
            capture.dropped = sniffer.dropped
        if COLLECT_RECORDS in collect:
            records = recs
    return GroupResult(index=spec.index, result=result, counters=counters,
                       fingerprint=fingerprint, capture=capture,
                       records=records)


def run_shard(args: Tuple) -> List[GroupResult]:
    """Worker entry: rebuild and run every group of one shard.

    Module-level and fed picklable tuples, as :func:`runner.sweep`
    requires.  ``args`` is ``(specs, base_config, collect, workload)``,
    as built by :func:`shard_args`.  The workload name
    resolves through the registry *inside* the worker, so application
    modules (spark) import only where their groups actually run.
    Groups run sequentially in spec order; each builds its own cluster
    (which restarts packet serial numbering), so a group's bytes are
    identical whether its neighbour ran in this process, in another
    worker, or not at all.
    """
    specs, base_config, collect, name = args
    workload = get_fleet_workload(name)
    return [workload.run_group(spec, base_config, frozenset(collect))
            for spec in specs]


# ----------------------------------------------------------------------
# Deterministic merge
# ----------------------------------------------------------------------

def merge_results(config, group_results: Sequence[GroupResult]):
    """Fold per-group :class:`MicrobenchResult` partials into one.

    Additive metrics sum in canonical group order; ``execution_time_ns``
    is the fleet's critical path (groups run concurrently in simulated
    time, so the fleet finishes when its slowest group does);
    completions k-way merge by ``(completion time, group, arrival
    order)`` — group-local order is already serial order, and group
    LID sets are disjoint, so this is the ``(timestamp, lid, qpn,
    serial)`` ordering contract with ties broken canonically.
    """
    from repro.bench.microbench import MicrobenchResult

    ordered = _ordered(group_results)
    keyed = []
    for group in ordered:
        for position, completion in enumerate(group.result.completions):
            keyed.append(((completion[1], group.index, position),
                          completion))
    keyed.sort(key=lambda pair: pair[0])
    results = [group.result for group in ordered]
    return MicrobenchResult(
        config=config,
        execution_time_ns=max(r.execution_time_ns for r in results),
        completions=[completion for _key, completion in keyed],
        total_packets=sum(r.total_packets for r in results),
        timeouts=sum(r.timeouts for r in results),
        rnr_naks=sum(r.rnr_naks for r in results),
        seq_naks=sum(r.seq_naks for r in results),
        flaw_drops=sum(r.flaw_drops for r in results),
        responses_discarded_odp=sum(r.responses_discarded_odp
                                    for r in results),
        responses_discarded_rnr=sum(r.responses_discarded_rnr
                                    for r in results),
        blind_retransmit_rounds=sum(r.blind_retransmit_rounds
                                    for r in results),
        client_page_faults=sum(r.client_page_faults for r in results),
        server_page_faults=sum(r.server_page_faults for r in results),
        errors=sum(r.errors for r in results),
        integrity_errors=sum(r.integrity_errors for r in results),
        coalesced_rounds=sum(r.coalesced_rounds for r in results),
        events_coalesced=sum(r.events_coalesced for r in results),
        mitigation_fallbacks=_merge_fallbacks(results),
    )


def _merge_fallbacks(results) -> dict:
    """Sum per-reason mitigation fallback tallies across groups."""
    merged: dict = {}
    for result in results:
        for reason, count in sorted(result.mitigation_fallbacks.items()):
            merged[reason] = merged.get(reason, 0) + count
    return merged


def _ordered(group_results: Sequence[GroupResult]) -> List[GroupResult]:
    ordered = sorted(group_results, key=lambda group: group.index)
    indices = [group.index for group in ordered]
    if indices != list(range(len(ordered))):
        raise ShardPlanError(f"merge needs each group exactly once, "
                             f"got indices {indices}")
    return ordered


def merge_capture_records(group_results: Sequence[GroupResult]) -> List:
    """K-way merge of per-group capture rows.

    Key: ``(timestamp, src_lid, src_qpn, arrival order)``.  Group LID
    sets are disjoint and within a group arrival order *is* serial
    order, so this realises the ``(timestamp, lid, qpn, serial)`` merge
    contract deterministically for any shard layout.
    """
    keyed = []
    for group in _ordered(group_results):
        for position, rec in enumerate(group.records or ()):
            keyed.append(((rec.time_ns, rec.src_lid, rec.src_qpn,
                           position), rec))
    keyed.sort(key=lambda pair: pair[0])
    return [rec for _key, rec in keyed]


#: The built-in workload: MicrobenchConfig fleets.
register_fleet_workload(FleetWorkload(name="microbench",
                                      groups=fleet_groups,
                                      run_group=_run_group,
                                      merge=merge_results))


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
    capture: Optional[Any] = None    # merged CaptureSummary
    records: Optional[List[Any]] = None
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
    workload = get_fleet_workload(workload_name(config))
    groups = workload.groups(config)
    requested = int(config.shards if shards is None else shards)
    if requested == 0:
        requested = runner.default_jobs()
    plan = plan_shards(groups, requested, fleet_hazards(config))
    return workload, groups, plan


def merge_fleet(config, group_results: Sequence[GroupResult],
                plan: ShardPlan, collect: Iterable[str] = (),
                workload: Optional[FleetWorkload] = None) -> FleetResult:
    """Fold per-group partials into a :class:`FleetResult`.

    The workload merges its own result type; counters, fingerprints and
    capture artifacts merge identically for every workload.  Shared by
    :func:`run_fleet` and the perfbench shard accounting, which collects
    the same :class:`GroupResult` s through its own pool.
    """
    collect_set = _check_collect(collect)
    if workload is None:
        workload = get_fleet_workload(workload_name(config))
    merged = workload.merge(config, group_results)
    counters = None
    if COLLECT_COUNTERS in collect_set:
        from repro.telemetry.counters import merge_counter_items
        counters = merge_counter_items(
            group.counters or () for group in _ordered(group_results))
    fingerprint = None
    if COLLECT_FINGERPRINT in collect_set:
        fingerprint = fleet_fingerprint(
            [group.fingerprint for group in _ordered(group_results)])
    capture = None
    if COLLECT_CAPTURE in collect_set:
        from repro.capture.analyze import merge_summaries
        capture = merge_summaries([group.capture
                                   for group in _ordered(group_results)
                                   if group.capture is not None])
    records = None
    if COLLECT_RECORDS in collect_set:
        records = merge_capture_records(group_results)
    return FleetResult(result=merged, plan=plan, counters=counters,
                       fingerprint=fingerprint, capture=capture,
                       records=records, groups=list(group_results))


def shard_args(groups: Sequence[GroupSpec], plan: ShardPlan, config,
               collect: Iterable[str] = ()) -> List[Tuple]:
    """The picklable :func:`run_shard` argument tuples for a plan.

    Strips any telemetry session from the shipped config — it holds the
    whole cluster graph, which must not cross the pickle boundary.
    """
    collect_set = _check_collect(collect)
    base = dataclasses.replace(config, telemetry=None)
    name = workload_name(config)
    return [(tuple(groups[i] for i in shard), base,
             tuple(sorted(collect_set)), name)
            for shard in plan.shards]


def run_fleet(config, shards: Optional[int] = None,
              collect: Iterable[str] = ()) -> FleetResult:
    """Execute a fleet config across shard workers and merge exactly.

    ``shards`` overrides ``config.shards``; 0 means "one worker per
    usable core".  ``collect`` names extra artifacts to gather per
    group and merge: ``"counters"``, ``"fingerprint"``, ``"capture"``
    (summaries), ``"records"`` (raw rows; test-sized fleets only).

    Inside a sweep worker (a grouped fig09 point) or under
    ``REPRO_SERIAL`` the groups run in-process, one after another.

    The merged result is bit-identical for every shard count and every
    ``REPRO_JOBS`` value — each group is a hermetic simulation, so
    execution placement cannot leak into results; only wall-clock
    changes.
    """
    collect_set = _check_collect(collect)
    workload, groups, plan = plan_fleet(config, shards)
    telemetry = getattr(config, "telemetry", None)
    if plan.pooled and not runner.serial_forced():
        shard_lists = runner.sweep(run_shard,
                                   shard_args(groups, plan, config,
                                              collect_set),
                                   processes=len(plan.shards))
        group_results = [group for shard in shard_lists for group in shard]
    else:
        # In-process fallback: same per-group runs, same merge — the
        # telemetry session (if any) attaches to every group cluster.
        base = dataclasses.replace(config, telemetry=None)
        group_results = [workload.run_group(spec, base, collect_set,
                                            telemetry=telemetry)
                         for spec in groups]
    return merge_fleet(config, group_results, plan, collect_set, workload)
