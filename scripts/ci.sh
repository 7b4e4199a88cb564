#!/usr/bin/env bash
# Single CI gate: tier-1 unit suite, perfbench's own tests, scenario
# tier, paper claims, static-analysis lint, chaos tier, facade selftest,
# perf regression, telemetry + retry overhead.
#
#   scripts/ci.sh                 # full gate (tier-1 + perfbench + scenario + paper + chaos + selftest + bench)
#   SKIP_BENCH=1 scripts/ci.sh    # fast gate (no benchmark re-run)
#
# The scenario stage runs the full built-in catalog: the 12-built-in
# distributional-identity checks (scalar vs mega-batch) and the
# facade-equivalence checks (Session vs the legacy entry points, on
# every backend).
#
# The chaos stage runs the seeded fault-injection tier (worker crashes,
# hangs, kills, corrupted chunk payloads) and pins that records with
# injected faults are bit-identical to records without, on every
# backend.
#
# The benchmark stage re-times the perf suites and compares medians
# against the persisted baseline (BENCH_PR9.json by default — the most
# recent baseline, so every benchmark incl. the telemetry-enabled suite
# run, the retry-armed suite run and the mega-batch pairs is gated)
# via `python -m repro.bench --compare` — non-zero exit on any
# regression beyond tolerance.  Override with BENCH_BASELINE=path.
#
# The overhead gates (`python -m repro.bench.overhead`) time the
# perf_suite_run workload with telemetry (then a retry policy) off vs
# on as interleaved pairs and fail when the median on/off ratio
# exceeds the 2% budget — paired rounds, because separately-timed
# medians cannot resolve 2% on a noisy shared box.
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
echo "== paper stage (E1-E9 claims and ablations) =="
# The paper's experiment regenerations assert its claims; every
# built-in's records feed them, so they gate each change to the
# simulation, not only benchmark re-runs.
python -m pytest benchmarks/test_bench_e*.py benchmarks/test_bench_abl_*.py \
    -m bench -q --benchmark-disable

echo
echo "== static analysis lint gate =="
# New findings fail; legacy shared-generator findings live in the
# committed baseline (python -m repro.analysis --update-baseline).
python -m repro.analysis --baseline analysis-baseline.json src examples

echo
echo "== chaos tier (seeded fault injection) =="
python -m pytest -m chaos -q

echo
echo "== repro.api selftest =="
python -m repro.api --selftest

if [[ "${SKIP_BENCH:-0}" != "1" ]]; then
    echo
    echo "== benchmark regression gate =="
    baseline="${BENCH_BASELINE:-BENCH_PR9.json}"
    python -m repro.bench -o /tmp/bench-ci.json --compare "$baseline"

    echo
    echo "== telemetry overhead gate (<= 2%) =="
    python -m repro.bench.overhead --workload telemetry

    echo
    echo "== retry-policy overhead gate (<= 2%) =="
    python -m repro.bench.overhead --workload retry
fi

echo
echo "ci.sh: all gates passed"
