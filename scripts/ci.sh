#!/usr/bin/env bash
# Single CI gate: tier-1 unit suite, perfbench's own tests, scenario
# tier, paper claims and perf parity checks, static-analysis lint,
# chaos tier, facade selftest, telemetry + retry overhead.
#
#   scripts/ci.sh                 # full gate
#   SKIP_BENCH=1 scripts/ci.sh    # fast gate (no overhead timings)
#
# Performance regressions are gated without wall-clock timing: tier 1
# pins the deterministic work counters of the three BENCHMARK.json
# workloads (tests/golden/test_work_counters.py), so a change that does
# more work — a cache that stops hitting, a scenario that falls back
# from its batch engine — fails the first stage.
#
# The scenario stage runs the full built-in catalog: the 12-built-in
# distributional-identity checks (scalar vs mega-batch) and the
# facade-equivalence checks (Session vs ScenarioSuite/DiversityStudy on
# an explicit ExperimentRunner, on every backend).
#
# The paper stage runs the E1-E9 claims, the ablations and the perf
# micro-benchmarks' parity checks (scalar vs batch records, streaming
# memory bound, warm-cache records) with timing disabled.
#
# The chaos stage runs the seeded fault-injection tier (worker crashes,
# hangs, kills, corrupted chunk payloads) and pins that records with
# injected faults are bit-identical to records without, on every
# backend.
#
# The overhead gates (`python -m repro.bench.overhead`) time the
# perf_suite_run workload with telemetry (then a retry policy) off vs
# on as interleaved pairs and fail when the median on/off ratio
# exceeds the 2% budget — paired rounds, because separately-timed
# medians cannot resolve 2% on a noisy shared box.  SKIP_BENCH=1
# skips only these two gates.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1 test suite =="
python -m pytest -x -q

echo
echo "== perfbench self-tests =="
# The benchmark's arithmetic and output checks (stdlib only, ~4 s).
# pytest.ini's testpaths leave perfbench/ out of the tier-1 run.
python -m pytest perfbench -q

echo
echo "== scenario tier (built-in catalog, facade equivalence) =="
python -m pytest -m scenario -q

echo
echo "== paper stage (E1-E9 claims, ablations, perf parity checks) =="
# The paper's experiment regenerations assert its claims; every
# built-in's records feed them, so they gate each change to the
# simulation.  The perf micro-benchmarks run once each, untimed, for
# their parity assertions (scalar vs batch records, streaming memory
# bound, warm-cache records).
python -m pytest benchmarks/test_bench_e*.py benchmarks/test_bench_abl_*.py \
    benchmarks/test_bench_perf_*.py -m bench -q --benchmark-disable

echo
echo "== static analysis lint gate =="
# New findings and stale baseline entries fail; the legacy
# shared-generator finding lives in the committed baseline
# (python -m repro.analysis --update-baseline).
python -m repro.analysis --baseline analysis-baseline.json src examples

echo
echo "== chaos tier (seeded fault injection) =="
python -m pytest -m chaos -q

echo
echo "== repro.api selftest =="
python -m repro.api --selftest

if [[ "${SKIP_BENCH:-0}" != "1" ]]; then
    echo
    echo "== telemetry overhead gate (<= 2%) =="
    python -m repro.bench.overhead --workload telemetry

    echo
    echo "== retry-policy overhead gate (<= 2%) =="
    python -m repro.bench.overhead --workload retry
fi

echo
echo "ci.sh: all gates passed"
