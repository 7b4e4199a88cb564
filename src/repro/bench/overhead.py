"""Paired overhead gates (``python -m repro.bench.overhead``).

``scripts/ci.sh`` must verify that two always-available features cost
at most a few percent of ``perf_suite_run`` wall-clock: enabling
telemetry, and arming a :class:`~repro.exec.RetryPolicy` (watchdog on,
no faults injected).  Separately-timed benchmark medians cannot
resolve a 2% budget on a shared box whose run-to-run noise is +/-10%,
so this gate measures the overhead as a *paired* experiment: each
round times the identical suite run once with the feature disabled and
once enabled (alternating order to cancel drift), and the statistic is
the median of the per-round on/off ratios.  Because the true overheads
are well under the budget, a regression that trips the gate is a real
one; residual scheduling noise is absorbed by retrying the whole
measurement a bounded number of times before failing.

The companion benchmarks (``perf_telemetry_overhead`` and
``perf_retry_overhead`` next to ``perf_suite_run`` in ``benchmarks/``)
time the same workloads for manual inspection; this module is the hard
CI gate.  Select the feature with ``--workload telemetry`` (default) or
``--workload retry``.
"""

from __future__ import annotations

import argparse
import statistics
import time
from typing import Dict, List, Optional, Tuple

#: The perf_suite_run workload (benchmarks/test_bench_perf_campaign.py).
SUITE_NAMES = ("cooling_stuxnet", "cooling_duqu", "cooling_flame")
SUITE_SEED = 2013

#: Overhead budget: the enabled feature may cost at most this fraction
#: of the disabled run's wall-clock.
DEFAULT_TOLERANCE = 0.02

WORKLOADS = ("telemetry", "retry")


def _timed_runs(workload: str = "telemetry") -> Tuple:
    """``(run_off, run_on)`` timing closures over a shared suite."""
    from repro.scenarios.registry import SCENARIOS
    from repro.scenarios.suite import ScenarioSuite

    specs = [SCENARIOS.get(name) for name in SUITE_NAMES]
    suite = ScenarioSuite(specs)

    def run_off() -> float:
        started = time.perf_counter()
        suite.run(SUITE_SEED)
        return time.perf_counter() - started

    if workload == "retry":
        from repro.exec import ExperimentRunner, RetryPolicy

        armed = ScenarioSuite(
            specs,
            runner=ExperimentRunner(
                "serial",
                retry=RetryPolicy(max_attempts=3, timeout_s=30.0),
            ),
        )

        def run_on() -> float:
            started = time.perf_counter()
            armed.run(SUITE_SEED)
            return time.perf_counter() - started

        return run_off, run_on

    if workload != "telemetry":
        raise ValueError(
            f"unknown workload {workload!r}; choose from {WORKLOADS}"
        )

    from repro.telemetry import Telemetry

    def run_on_telemetry() -> float:
        telemetry = Telemetry()
        started = time.perf_counter()
        with telemetry.activate(), telemetry.span("session.run"):
            suite.run(SUITE_SEED)
        return time.perf_counter() - started

    return run_off, run_on_telemetry


def measure_overhead(
    rounds: int = 8, workload: str = "telemetry"
) -> Dict[str, object]:
    """Median paired on/off ratio over ``rounds`` interleaved rounds.

    Each round runs both variants back to back, alternating which goes
    first, so slow drift (thermal, co-tenant load) hits both sides
    equally.  One warmup pair runs first and is discarded.
    """
    run_off, run_on = _timed_runs(workload)
    run_off()
    run_on()
    ratios: List[float] = []
    for index in range(rounds):
        if index % 2 == 0:
            off, on = run_off(), run_on()
        else:
            on, off = run_on(), run_off()
        ratios.append(on / off)
    return {
        "ratios": ratios,
        "median_ratio": statistics.median(ratios),
        "rounds": rounds,
        "workload": workload,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.overhead",
        description=(
            "Gate the telemetry / retry-policy overhead of the "
            "perf_suite_run workload with a paired (interleaved "
            "on/off) measurement."
        ),
    )
    parser.add_argument(
        "--workload", choices=WORKLOADS, default="telemetry",
        help="which always-on feature to gate (default telemetry)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE,
        help=f"allowed fractional overhead (default {DEFAULT_TOLERANCE})",
    )
    parser.add_argument(
        "--rounds", type=int, default=8,
        help="paired rounds per attempt (default 8)",
    )
    parser.add_argument(
        "--attempts", type=int, default=3,
        help="measurement attempts before the gate fails (default 3)",
    )
    args = parser.parse_args(argv)
    budget = 1.0 + args.tolerance
    worst = 0.0
    for attempt in range(1, args.attempts + 1):
        measured = measure_overhead(
            rounds=args.rounds, workload=args.workload
        )
        median = measured["median_ratio"]
        worst = max(worst, median)
        spread = ", ".join(f"{r:.3f}" for r in measured["ratios"])
        print(
            f"attempt {attempt}/{args.attempts}: median on/off ratio "
            f"{median:.4f} over {args.rounds} paired rounds [{spread}]"
        )
        if median <= budget:
            print(
                f"{args.workload} overhead {max(median - 1.0, 0.0):.2%} "
                f"<= {args.tolerance:.0%} budget: OK"
            )
            return 0
    print(
        f"FAIL: {args.workload} overhead gate — median on/off ratio "
        f"reached {worst:.4f} (> {budget:.4f}) on every attempt"
    )
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
