"""The repository's end-to-end and per-layer benchmark.

Run it from the repository root::

    python3 perfbench/run.py --workload damming --seed 0 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` makes the
separate traced run that prints the per-layer breakdown.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``BENCHMARK.json`` at the
repository root names the workloads and metrics; ``layers.json`` here
maps modules to layers and records which layer metric should move which
end-to-end metric on which workload.
"""
