"""Benchmark tooling.

:mod:`repro.bench.overhead` holds the paired overhead gates
(``python -m repro.bench.overhead``) that ``scripts/ci.sh`` runs.
Performance regressions are caught elsewhere: the deterministic work
counters of the benchmark workloads are pinned in tier 1
(``tests/golden/test_work_counters.py``), and ``perfbench/`` times the
workloads end to end.
"""
