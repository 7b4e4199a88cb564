#!/usr/bin/env bash
# Single CI gate: tier-1 unit suite, perfbench's own tests, scenario
# tier, paper claims and perf parity checks, static-analysis lint,
# chaos tier, facade selftest, perfbench workloads' correctness.
#
#   scripts/ci.sh
#
# No stage's verdict depends on wall time.  Performance regressions are
# gated by counts instead: tier 1 pins the work
# counters and the span call counts of the three BENCHMARK.json
# workloads (tests/golden/test_work_counters.py), so a change that does
# more work — a cache that stops hitting, a scenario that falls back
# from its batch engine, a span in a per-tick loop, an armed retry
# policy that re-runs a unit — fails the first stage.  Wall time is
# measured by perfbench (`--trace 1` also reports telemetry's share).
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
# The perfbench stage runs each BENCHMARK.json workload once, briefly,
# for its own correctness checks (pinned digests and invariants); its
# times are not read.
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

echo
echo "== perfbench workloads (correctness only) =="
# Passes when the run's last line, its JSON result, reads
# "correct": true and "failed": 0; prints the whole run otherwise.
check_result='
import json, sys
lines = sys.stdin.read().splitlines()
result = json.loads(lines[-1])
print("correct:", result["correct"], "failed:", result["failed"])
if result["correct"] is not True or result["failed"] != 0:
    print("\n".join(lines))
    sys.exit(1)
'
workloads=$(python -c 'import json; print(*(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
for workload in $workloads; do
    echo "-- $workload"
    python perfbench/run.py --workload "$workload" --seed 3 --seconds 1 \
        --trace 0 | python -c "$check_result"
done

echo
echo "ci.sh: all gates passed"
