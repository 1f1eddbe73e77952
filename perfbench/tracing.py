"""The traced run: layer spans, boundary counts and per-layer self time.

Everything here instruments the program from outside.  ``Tracer``
wraps the public functions listed in :data:`BOUNDARIES` for the length
of the traced pass, recording a span (name, start, end, parent, unit)
around each call and the counts those calls expose.  Self time per
layer comes from a sampling timer: every millisecond the interrupted
frame's module is charged to its layer
(``layers.json``), so the layers' self times sum to the traced wall by
construction and tracing costs a few percent instead of the 3-4x of a
deterministic profiler.
"""

from __future__ import annotations

import collections
import functools
import importlib
import json
import os
import pickle
import signal
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

LAYERS_PATH = Path(__file__).with_name("layers.json")
SAMPLE_INTERVAL_S = 0.001

#: (module, attribute path, layer): the public functions whose calls
#: are spans.  Each is called at most a few times per unit (per QP at
#: most), so wrapping them does not change where the time goes.
BOUNDARIES: Tuple[Tuple[str, str, str], ...] = (
    ("repro.bench.microbench", "run_microbench", "apps"),
    ("repro.apps.spark.benchmark", "_run_once", "apps"),
    ("repro.sim.engine", "Simulator.run", "sim"),
    ("repro.host.cluster", "Cluster.__init__", "setup"),
    ("repro.ib.verbs.pd", "ProtectionDomain.reg_mr", "setup"),
    ("repro.ib.verbs.pd", "ProtectionDomain.create_qp", "setup"),
    ("repro.ib.verbs.qp", "QueuePair.connect", "setup"),
    ("repro.experiments.shard", "plan_fleet", "shard"),
    ("repro.experiments.shard", "merge_fleet", "shard"),
    ("repro.service.tier", "ServiceCell.run", "service"),
    ("repro.telemetry", "Telemetry.diagnose", "telemetry"),
    ("repro.telemetry", "Telemetry.counters", "telemetry"),
    ("repro.telemetry", "Telemetry.fingerprint", "telemetry"),
)


def load_layers() -> List[Dict[str, Any]]:
    with open(LAYERS_PATH) as fh:
        return json.load(fh)["layers"]


def per_layer_names() -> List[str]:
    """Every per-layer metric name, in ``layers.json`` order."""
    with open(LAYERS_PATH) as fh:
        table = json.load(fh)
    names = [name for layer in table["layers"] for name in layer["metrics"]]
    return names + table["whole_run"]["metrics"]


class LayerMap:
    """Module name -> layer, by longest matching prefix."""

    def __init__(self, layers: List[Dict[str, Any]]):
        self._prefixes = sorted(
            ((module, layer["name"]) for layer in layers
             for module in layer["modules"]),
            key=lambda item: -len(item[0]))
        self._cache: Dict[str, str] = {}

    def __call__(self, module: str) -> str:
        layer = self._cache.get(module)
        if layer is None:
            layer = "other"
            for prefix, name in self._prefixes:
                if module == prefix or module.startswith(prefix + "."):
                    layer = name
                    break
            self._cache[module] = layer
        return layer


class Tracer:
    """Spans, counts and self-time samples of one traced pass."""

    def __init__(self, layer_map: LayerMap):
        self.layer_of = layer_map
        #: (span id, parent id, unit id, name, layer, start, end)
        self.spans: List[Tuple] = []
        self.counts: collections.Counter = collections.Counter()
        self.samples: collections.Counter = collections.Counter()
        self.unit_id: Optional[int] = None
        self.traced_s = 0.0
        self._stack: List[int] = []
        self._next_id = 0
        self._clusters: List[Any] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self._active = False
        self._old_handler = None
        #: boundary name -> (before, after) count hooks
        self._hooks = {
            "Simulator.run": (self._sim_before, self._sim_after),
            "Cluster.__init__": (None, self._cluster_built),
            "ProtectionDomain.create_qp": (None, self._qp_created),
            "Telemetry.fingerprint": (None, self._trace_done),
        }

    # -- spans ---------------------------------------------------------

    def _open(self) -> Tuple[int, Optional[int]]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        return span_id, parent

    def _close(self, span_id: int, parent: Optional[int], name: str,
               layer: str, start: float, end: float) -> None:
        self._stack.pop()
        self.spans.append((span_id, parent, self.unit_id, name, layer,
                           start, end))

    def _wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        before, after = self._hooks.get(name, (None, None))

        @functools.wraps(fn)
        def span(*args, **kwargs):
            state = before(args) if before is not None else None
            span_id, parent = self._open()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span_id, parent, name, layer, start,
                            time.perf_counter())
                if after is not None:
                    after(args, state)
        return span

    def install(self) -> None:
        """Wrap every boundary function (undone by :meth:`uninstall`)."""
        for module_name, path, layer in BOUNDARIES:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, path, layer))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- counts taken at the boundaries --------------------------------

    def _sim_before(self, args):
        sim = args[0]
        return sim.events_fired, sim.events_coalesced

    def _sim_after(self, args, state):
        sim = args[0]
        self.counts["sim.events"] += sim.events_fired - state[0]
        self.counts["sim.events_coalesced"] += \
            sim.events_coalesced - state[1]

    def _cluster_built(self, args, _state):
        self._clusters.append(args[0])

    def _qp_created(self, _args, _state):
        self.counts["setup.qps"] += 1

    def _trace_done(self, args, _state):
        # called once per traced cluster, after its run
        tracer = args[0].tracer
        self.counts["telemetry.events_traced"] += len(tracer) + \
            tracer.dropped
        self.counts["telemetry.dropped"] += tracer.dropped

    def _harvest(self) -> None:
        """Fold the counters of the unit's clusters into the counts."""
        from repro.telemetry.counters import collect_counters

        for cluster in self._clusters:
            self.counts["transport.packets"] += cluster.total_packets()
            for (scope, name), value in collect_counters(cluster).items():
                key = (".qp" in scope, name)
                metric = _HARVEST.get(key)
                if metric is not None:
                    self.counts[metric] += value
            for node in cluster.nodes:
                for qp in node.rnic._qps.values():  # noqa: SLF001
                    coalescer = getattr(qp, "coalescer", None)
                    if coalescer is not None:
                        self.counts["mitigate.fallbacks"] += \
                            coalescer.decline_reasons.get("mitigation", 0)
        self._clusters.clear()

    # -- self-time sampling --------------------------------------------

    def _sample(self, _signum, frame) -> None:
        if self._active and frame is not None:
            self.samples[self.layer_of(
                frame.f_globals.get("__name__", ""))] += 1

    def start_sampling(self) -> None:
        self._old_handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)

    def stop_sampling(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old_handler or signal.SIG_DFL)

    def run_unit(self, unit_id: int, fn: Callable[[], Any]) -> Any:
        """Run one unit under a ``unit`` span with sampling on; harvest
        its counts afterwards, outside the traced time."""
        self.unit_id = unit_id
        span_id, parent = self._open()
        self._active = True
        start = time.perf_counter()
        try:
            return fn()
        finally:
            end = time.perf_counter()
            self._active = False
            self._close(span_id, parent, "unit", "unit", start, end)
            self.traced_s += end - start
            self._harvest()

    # -- results -------------------------------------------------------

    def outer_span_s(self, layer: str, name: Optional[str] = None) -> float:
        """Host seconds inside ``layer``'s spans (optionally one name),
        counting nested spans of the same layer once."""
        by_id = {span[0]: span for span in self.spans}
        total = 0.0
        for span_id, parent, _unit, span_name, span_layer, start, end \
                in self.spans:
            if span_layer != layer or (name and span_name != name):
                continue
            if parent is not None and by_id[parent][4] == layer:
                continue
            total += end - start
        return total

    def self_times(self) -> Dict[str, float]:
        """Per-layer self seconds scaled to the traced wall; ``other``
        takes the remainder so the values sum to the traced wall."""
        total = sum(self.samples.values())
        layers = {layer["name"]: 0.0 for layer in load_layers()}
        if total:
            for layer in layers:
                layers[layer] = self.traced_s * self.samples[layer] / total
        layers["other"] = self.traced_s - sum(layers.values())
        return layers

    def write(self, path: Path) -> None:
        """Write the spans out (the run keeps them in memory until now)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "unit", "name", "layer",
                                  "start", "end"],
                       "spans": self.spans}, fh)


#: (QP-scoped?, counter name) -> per-layer count, for the harvest.
_HARVEST = {
    (True, "local_ack_timeout_err"): "transport.timeouts",
    (False, "rnr_nak_sent"): "transport.rnr_naks",
    (True, "odp.blind_retransmit_rounds"): "transport.blind_rounds",
    (True, "exec.coalesce.blind_rounds"): "coalesce.blind_hits",
    (True, "exec.coalesce.rnr_rounds"): "coalesce.rnr_hits",
    (False, "odp.client_faults"): "odp.client_faults",
    (False, "odp.server_faults"): "odp.server_faults",
    (True, "resp_discarded_odp"): "odp.discarded",
}


# ----------------------------------------------------------------------
# Shard accounting (spark-fleet): plan, ship, run and merge timed apart
# ----------------------------------------------------------------------

COLLECT = ("counters", "fingerprint")


def timed_run_shard(args) -> Tuple[int, float, bytes]:
    """Worker side: run one shard, time it, and pickle the result here so
    the parent learns its size without pickling it twice."""
    from repro.experiments.shard import run_shard

    start = time.perf_counter()
    groups = run_shard(args)
    busy = time.perf_counter() - start
    return os.getpid(), busy, pickle.dumps(groups)


def shard_accounting(inputs: Dict[str, Any], pool) -> Dict[str, Any]:
    """Run the spark fleet the way ``run_fleet``'s pooled path does,
    timing each stage: plan, ship (pickled arguments), run (worker busy
    time), return (pickled results) and merge."""
    from repro.apps.spark.fleet import SparkFleetConfig
    from repro.experiments import shard

    config = SparkFleetConfig(**inputs)
    start = time.perf_counter()
    workload, groups, plan = shard.plan_fleet(config)
    planned = time.perf_counter()
    args = shard.shard_args(groups, plan, config, COLLECT)
    ship_bytes = sum(len(pickle.dumps(arg)) for arg in args)
    returned = list(pool.map(timed_run_shard, args, chunksize=1))
    group_results = [group for _pid, _busy, payload in returned
                     for group in pickle.loads(payload)]
    ran = time.perf_counter()
    fleet = shard.merge_fleet(config, group_results, plan, COLLECT,
                              workload)
    end = time.perf_counter()
    busy: Dict[int, float] = collections.defaultdict(float)
    for pid, seconds, _payload in returned:
        busy[pid] += seconds
    return {
        "fleet": fleet,
        "shards": len(plan.shards),
        "wall_s": end - start,
        "plan_s": planned - start,
        "ship_bytes": ship_bytes,
        "return_bytes": sum(len(payload) for _p, _b, payload in returned),
        "worker_busy_s": sorted(busy.values(), reverse=True),
        "run_s": ran - planned,
        "merge_s": end - ran,
    }
