"""Experiment runners: one module per table/figure of the paper.

Every module exposes a ``run_*`` function returning a result object
with a ``render()`` method producing the paper-shaped text output
(rows for tables, ASCII series for figures).  Tier-1 calls these:
``tests/test_paper_claims.py`` asserts the paper's shapes and
``tests/test_golden_renders.py`` pins each render byte for byte
against its committed file under ``tests/golden/``.

| Module | Reproduces |
|---|---|
| ``tables``            | Table I (RNIC inventory), Table II (hosts) |
| ``fig01_workflow``    | Figure 1: single-READ ODP workflows |
| ``fig02_timeout``     | Figure 2: measured T_o vs C_ACK per system |
| ``fig04_damming``     | Figure 4: exec time vs interval, 2 READs |
| ``fig05_workflow``    | Figure 5: two-READ damming workflow |
| ``fig06_probability`` | Figure 6: timeout probability vs interval |
| ``fig07_more_reads``  | Figure 7: 2/3/4 operations narrowing |
| ``fig08_workflow``    | Figure 8: three-READ NAK(PSN) recovery |
| ``fig09_flood``       | Figure 9: exec time & packets vs #QPs |
| ``fig10_layout``      | Figure 10: buffer/QP memory layout |
| ``fig11_completion``  | Figure 11: per-page completion timelines |
| ``fig12_argodsm``     | Figure 12: ArgoDSM init/finalize histograms |
| ``tab13_spark``       | Table 13: SparkUCX with/without ODP |
"""
