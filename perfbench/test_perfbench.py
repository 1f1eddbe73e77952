"""The benchmark's own tests: run with ``python3 -m pytest perfbench``.

They shrink a damming pass to a few units so the whole file runs in
seconds; the metric-name checks still run the real measurement code.
"""

from __future__ import annotations

import json
import re
import sys
import time
from contextlib import ExitStack
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import refclock, run, tracing, workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def benchmark_json():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


@pytest.fixture
def small_clock():
    clock = refclock.start()
    try:
        yield clock
    finally:
        clock.stop()


def _small_bench(stack, clock):
    """A damming bench cut down to eight units."""
    bench = run.Bench("damming", 0, stack, clock)
    bench.units = bench.units[:8]
    bench.expected = bench.expected[:8]
    return bench


@pytest.fixture
def small_bench(small_clock):
    with ExitStack() as stack:
        yield _small_bench(stack, small_clock)


@pytest.fixture
def small_traced_bench():
    with ExitStack() as stack:
        yield _small_bench(stack, None)


def test_benchmark_json_names_follow_the_grammar():
    spec = benchmark_json()
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for entry in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(entry["unit"]), entry
    assert [w["name"] for w in spec["workloads"]] \
        == list(workloads.WORKLOADS)


def test_end_to_end_metrics_match_benchmark_json(small_bench):
    result = run.measure(small_bench, seconds=0, trace=False)
    spec = {m["name"]: m["unit"] for m in benchmark_json()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 16  # a warm-up pass and a timed one
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_metrics_match_benchmark_json(small_traced_bench):
    result = run.measure(small_traced_bench, seconds=0, trace=True)
    spec = {m["name"]: m["unit"] for m in benchmark_json()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert list(spec) == tracing.per_layer_names()
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    self_total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert self_total == pytest.approx(metrics["trace.wall_s"])
    assert metrics["setup.qps"] == 16  # two QPs per point


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    first = workloads.describe_inputs(workloads.make_units(workload, 3))
    again = workloads.describe_inputs(workloads.make_units(workload, 3))
    other = workloads.describe_inputs(workloads.make_units(workload, 4))
    assert first == again
    assert first != other


def test_same_seed_same_digests_matching_expected():
    units = workloads.make_units("damming", 0)[:20]
    expected = workloads.load_expected("damming", 0)
    first = [workloads.run_unit("damming", unit).digest for unit in units]
    again = [workloads.run_unit("damming", unit).digest for unit in units]
    assert first == again
    assert all(workloads.digest_matches(d, e)
               for d, e in zip(first, expected))


def test_wrong_expected_digest_raises_fail_rate(small_bench):
    wrong = bytes(b ^ 0xFF for b in small_bench.expected[3])
    small_bench.expected[3] = wrong
    result = run.measure(small_bench, seconds=0, trace=False)
    assert result["failed"] == 2  # once per pass
    assert not result["correct"]
    assert result["metrics"]["success_rate"]["value"] == \
        pytest.approx(1 - 1 / 8)


def test_raising_unit_counts_as_failed(small_bench, monkeypatch):
    def explode(workload, unit, shards=None):
        raise RuntimeError("boom")
    monkeypatch.setattr(workloads, "run_unit", explode)
    result = run.measure(small_bench, seconds=0, trace=False)
    assert result["failed"] == result["attempted"] == 16


@pytest.fixture
def own_clock():
    clock = refclock.RefClock()
    try:
        yield clock
    finally:
        if clock.running:
            clock.stop()


def _spin(seconds: float) -> None:
    end = time.thread_time() + seconds
    while time.thread_time() < end:
        pass


def test_reference_clock_leaves_the_probe_out_and_scales_by_it(own_clock):
    start = time.thread_time()
    own_clock.start()
    _spin(0.4)
    raw, ref = own_clock.read()
    elapsed = time.thread_time() - start
    own_clock.stop()
    assert own_clock.probes >= 4
    assert raw + own_clock.probe_s == pytest.approx(elapsed, rel=0.02)
    assert raw == pytest.approx(0.4, rel=0.1)
    fastest, slowest = min(own_clock.slowdowns), max(own_clock.slowdowns)
    assert raw / slowest * 0.999 <= ref <= raw / fastest * 1.001


def test_reference_clock_runs_in_forked_pool_workers(small_clock):
    from concurrent.futures import ProcessPoolExecutor

    refclock.fork_barrier(2)
    with ProcessPoolExecutor(2) as pool:
        pids = refclock.arm_workers(pool, 2)
        assert len(set(pids)) == 2
        list(pool.map(_spin, [0.2, 0.2]))
        raw, ref, probe = refclock.read_workers(pool, 2)
    assert raw == pytest.approx(0.4, rel=0.25)
    assert ref > 0 and probe > 0


def test_layer_map_longest_prefix():
    layer_of = tracing.LayerMap(tracing.load_layers())
    assert layer_of("repro.ib.transport.coalesce") == "coalesce"
    assert layer_of("repro.ib.transport.requester") == "transport"
    assert layer_of("repro.ib.verbs.qp") == "setup"
    assert layer_of("repro.ib.validate") == "telemetry"
    assert layer_of("repro.experiments.shard") == "shard"
    assert layer_of("repro.experiments.tab13_spark") == "apps"
    assert layer_of("heapq") == "other"
    assert layer_of("repro_extra") == "other"


def test_refuses_to_run_without_the_program(tmp_path):
    import shutil
    import subprocess

    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "damming",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
