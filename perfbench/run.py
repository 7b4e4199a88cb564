"""End-to-end, layer-attributed benchmark of the ``repro`` library.

Run from the root of a checkout::

    python3 perfbench/run.py --workload suite12 --seed 3 --seconds 40 --trace 0

Load shape: closed loop, one coordinating process, one workload run at a
time on the ``serial`` backend.  CLI and script users pay import and
lazy set-up on every run, so every run starts from a freshly set-up
interpreter: ``INTERPRETERS`` child interpreters (``workloads.py``) each
set up once, and each run is a forked copy of one of them taken right
after set-up.  The first children fork one run each and the last forks
runs for the rest of ``--seconds``.  Times are segment-minimum sums over
the runs (see ``layers.segment_minimum_sum``); memory is a median.

``--trace 0`` prints the end-to-end metrics (``setup_s``, ``wall_s``,
``reps_per_s``, ``peak_rss_mb``).  ``--trace 1`` alternates an untraced
run, a traced replay of the same work and a ``-X importtime`` probe,
and prints the per-layer metrics (``layers.py``).  The last stdout line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are the human-readable report
(workload rationale, failures, batch fallbacks, layer table).
``failed / attempted`` is the workload's ``failed_share``.

Exits 2 without a result when the library sources are missing or no
run succeeded.  See ``README.md`` for the workloads and predictions.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Why each workload is in the benchmark (printed with every run).
WHY = {
    "suite12": "all 12 built-ins, scalar: the headline suite; trajectory "
    "building and sabotage resume dominate it",
    "suite12_batch64": "the same suite with batch_size=64: the only load on "
    "the batch engine's scalar fallback (9 of 12 scenarios)",
    "campaign_stream": "a 100k-replication streamed, vectorized campaign: the "
    "out-of-core results path and the control for trajectory/plant changes",
    "paper_pipeline": "full_study of both paper case studies plus the step-1 "
    "SAN/CTMC and attack-tree solutions: the only load on repro.san and "
    "repro.attacktree",
}
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "reps_per_s": "1/s",
    "peak_rss_mb": "MB",
}
IMPORT_METRICS = tuple(f"import.{module}_s" for module in layers.IMPORT_MODULES)
#: Fresh interpreters per end-to-end run: each sets up once (a
#: ``setup_s`` sample) and forks repetitions of the workload.
INTERPRETERS = 4
MIN_TRACE_ROUNDS = 2
#: Hard cap on one child, well inside the 180 s budget of a whole run.
CHILD_TIMEOUT_S = 150.0


def per_layer_units(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name in ("batch.lane_utilization", "telemetry.overhead_share"):
        return "ratio"
    if name == "streaming.bytes_spilled":
        return "bytes"
    return "count"


class Harness:
    """Spawns workload children and tallies their checks."""

    def __init__(self, workload: str, seed: int, tmp: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failures: List[str] = []
        self.env = dict(os.environ)
        self.env.update(
            PYTHONPATH=str(SRC),
            TMPDIR=str(tmp),
            PYTHONHASHSEED="0",
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )

    def spawn(
        self, argv: List[str], stdin: Optional[str] = None
    ) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *argv],
            input=stdin,
            capture_output=True,
            text=True,
            env=self.env,
            cwd=ROOT,
            timeout=CHILD_TIMEOUT_S,
        )

    def child(
        self,
        mode: str,
        stdin: Optional[str] = None,
        budget: float = 0.0,
        first_cpu: int = 0,
    ) -> Optional[Dict]:
        """One workload child; a crash counts as one failed operation.

        An ``e2e`` child sets up once under ``-X importtime`` (its
        set-up's imports are returned under ``imports``) and prints one
        line per forked run before its own (returned under ``runs``; as
        many as fit ``budget`` seconds, at least one).
        """
        argv = [
            *(["-X", "importtime"] if mode == "e2e" else []),
            str(HERE / "workloads.py"),
            "--workload", self.workload,
            "--seed", str(self.seed),
            "--mode", mode,
            "--budget", f"{budget:.3f}",
            "--first-cpu", str(first_cpu),
        ]
        try:
            done = self.spawn(argv, stdin)
        except subprocess.TimeoutExpired:
            self.fail(f"{mode} run exceeded {CHILD_TIMEOUT_S:.0f} s")
            return None
        if done.returncode != 0:
            sys.stderr.write(done.stderr[-4000:])
            self.fail(f"{mode} run exited with code {done.returncode}")
            return None
        lines = done.stdout.strip().splitlines()
        out = json.loads(lines[-1])
        if mode == "e2e":
            out["runs"] = [json.loads(line) for line in lines[:-1]]
            setup_lines = done.stderr.partition(layers.SETUP_BEGIN)[2]
            setup_lines = setup_lines.partition(layers.SETUP_END)[0]
            out["imports"] = layers.import_self_times(setup_lines)
            runs = []
            for run in out["runs"]:
                if "error" in run:
                    sys.stderr.write(done.stderr[-4000:])
                    self.fail(run["error"])
                else:
                    self.tally(run)
                    runs.append(run)
            out["runs"] = runs
        else:
            self.tally(out)
        return out

    def tally(self, out: Dict) -> None:
        self.attempted += out["attempted"]
        self.failures.extend(out["failures"])

    def import_times(self) -> Dict[str, float]:
        done = self.spawn(["-X", "importtime", "-c", "import repro"])
        if done.returncode != 0:
            self.fail("import probe failed")
        return layers.parse_importtime(done.stderr)

    def fail(self, label: str) -> None:
        self.attempted += 1
        self.failures.append(label)

    def check(self, ok: bool, label: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(label)


def check_identical(harness: Harness, runs: List[Dict]) -> None:
    harness.check(
        len({out["replay"]["digest"] for out in runs}) == 1,
        "records differ between fresh interpreters with the same seed",
    )


def end_to_end(harness: Harness, deadline: float) -> Optional[Dict[str, Any]]:
    setups: List[Tuple[float, List[Tuple[str, float]]]] = []
    runs: List[Dict] = []
    for index in range(INTERPRETERS):
        # One run in each interpreter but the last, which gets the rest
        # of the time: set-up samples without idle tails.
        last = index == INTERPRETERS - 1
        budget = deadline - time.monotonic() if last else 0.0
        out = harness.child("e2e", budget=budget, first_cpu=index)
        if out is None:
            break
        setups.append((out["setup_s"], out["imports"]))
        print(f"  interpreter {len(setups)}: setup {out['setup_s']:.3f} s")
        for run in out["runs"]:
            runs.append(run)
            print(
                f"    run {len(runs)}: wall {run['wall_s']:.3f} s, "
                f"{run['reps']} reps, peak RSS {run['peak_rss_mb']:.1f} MB"
            )
    if not runs:
        return None
    check_identical(harness, runs)
    # Host contention on a shared box only ever adds time, in bursts
    # from sub-second to minutes long, so a time is the sum over its
    # segments (workload: marked calls; set-up: imported modules) of
    # each segment's fastest time across the run's repetitions, or the
    # median/best whole repetition if they were cut differently.
    # Memory is a median.
    best_whole = min(out["wall_s"] for out in runs)
    wall_s = layers.segment_minimum_sum([out["segments"] for out in runs])
    if wall_s is None:
        print("  runs were cut into different segments: best whole run")
        wall_s = best_whole
    setup_s = layers.setup_minimum_sum(setups)
    if setup_s is None:
        print("  interpreters imported different modules: median set-up")
        setup_s = layers.median([seconds for seconds, _ in setups])
    print(
        f"  wall_s {wall_s:.4f} s: sum of {len(runs[0]['segments'])} segment "
        f"minima over {len(runs)} runs (best whole run {best_whole:.4f} s)"
    )
    print(
        f"  setup_s {setup_s:.4f} s: sum of {len(setups[0][1]) + 1} segment "
        f"minima over {len(setups)} interpreters"
    )
    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "reps_per_s": runs[0]["reps"] / wall_s,
        "peak_rss_mb": layers.median([out["peak_rss_mb"] for out in runs]),
    }


def traced(harness: Harness, deadline: float) -> Optional[Dict[str, Any]]:
    rounds: List[Dict[str, float]] = []
    plains: List[Dict] = []
    fallbacks: Dict[str, str] = {}
    last = 0.0
    while len(rounds) < MIN_TRACE_ROUNDS or time.monotonic() + last <= deadline:
        started = time.monotonic()
        out = harness.child("e2e")
        if out is None or not out["runs"]:
            break
        plain = out["runs"][0]
        plains.append(plain)
        trace = harness.child("trace", json.dumps(plain["replay"]))
        if trace is None:
            break
        metrics = dict(trace["metrics"])
        for module, seconds in harness.import_times().items():
            metrics[f"import.{module}_s"] = seconds
        metrics["telemetry.overhead_share"] = layers.overhead_share(
            metrics["trace.wall_s"], plain["wall_s"]
        )
        rounds.append(metrics)
        fallbacks = trace["fallbacks"]
        last = time.monotonic() - started
    if not rounds:
        return None
    check_identical(harness, plains)
    print(f"  batch fallback: {len(fallbacks)} scenario(s) run scalar")
    for name, reason in sorted(fallbacks.items()):
        print(f"    {name}: {reason}")
    # Report the round with the median traced wall time whole, so its
    # layer times and unattributed_s add up exactly; probes measured
    # outside the traced wall are medians over every round.
    ordered = sorted(rounds, key=lambda r: r["trace.wall_s"])
    merged = dict(ordered[(len(ordered) - 1) // 2])
    for name in (*IMPORT_METRICS, "telemetry.overhead_share", "plant.step_s"):
        merged[name] = layers.median([r[name] for r in rounds])
    print_layer_table(merged, len(rounds))
    return merged


def print_layer_table(metrics: Dict[str, float], rounds: int) -> None:
    wall = metrics["trace.wall_s"]
    print(f"  per-layer self time (median of {rounds} traced runs by wall):")
    for name in (*layers.LAYER_TIME_METRICS, "unattributed_s"):
        share = metrics[name] / wall if wall else 0.0
        print(f"    {name:<24} {metrics[name]:9.4f} s  {share:6.1%}")
    print(f"    {'= trace.wall_s':<24} {wall:9.4f} s")
    for name in sorted(metrics):
        if name not in layers.LAYER_TIME_METRICS and name != "unattributed_s":
            print(f"    {name:<32} {metrics[name]:.6g}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WHY))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: library sources not found under {SRC}", file=sys.stderr)
        return 2
    # Byte-compile once, as an installed package would be, so set-up
    # time measures imports rather than compilation.
    compileall.compile_dir(str(SRC), quiet=1)

    tmp_root = ROOT / ".perfbench_tmp"
    tmp = tmp_root / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        harness = Harness(args.workload, args.seed, tmp)
        harness.spawn(["-c", "import repro"])  # warm the file cache
        print(f"workload {args.workload} (seed {args.seed}): {WHY[args.workload]}")
        deadline = time.monotonic() + args.seconds
        if args.trace:
            values = traced(harness, deadline)
            unit = per_layer_units
        else:
            values = end_to_end(harness, deadline)
            unit = END_TO_END_UNITS.get
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass
    if values is None:
        print("perfbench: no run of the workload succeeded", file=sys.stderr)
        return 2
    for label in harness.failures:
        print(f"  FAILED: {label}")
    print(
        f"  failed_share {len(harness.failures)}/{harness.attempted} "
        f"checked operations"
    )
    result = {
        "correct": not harness.failures,
        "attempted": harness.attempted,
        "failed": len(harness.failures),
        "metrics": {
            name: {"value": value, "unit": unit(name)}
            for name, value in values.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
