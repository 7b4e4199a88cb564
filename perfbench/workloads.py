"""One benchmark workload in a fresh interpreter (``run.py``'s child).

Usage (normally spawned by ``run.py``, with ``src`` on ``PYTHONPATH``)::

    python3 -X importtime perfbench/workloads.py --workload suite12 \\
        --seed 3 --mode e2e --budget 20
    python3 perfbench/workloads.py --workload suite12 --seed 3 \\
        --mode trace < replay.json

Both modes time ``import repro`` + ``Session()`` (``setup_s``).
``--mode e2e`` then forks copies of the set-up interpreter, one at a
time, while they fit ``--budget`` seconds (at least one).  Each copy
runs the workload's public calls with tracing off (``wall_s``, cut into
segments at the calls in ``MARKED_CALLS``), checks the outputs and
prints one JSON line: the measurements, the check tally, the records
digest and the seed material of every result's provenance (the
*replay* a traced run needs).  The last line holds ``setup_s``.

``--mode trace`` reads that replay object on stdin and re-executes the
same work as the public per-layer calls, each wrapped in a span of an
active :class:`repro.telemetry.Telemetry`; the library's own spans and
counters nest underneath.  The replay must reproduce the e2e records
digest, so the per-layer numbers describe the same work.  It prints the
per-layer metrics (see ``layers.py``) as one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import itertools
import json
import os
import resource
import sys
import threading
import time
import traceback
from array import array
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import layers

HERE = Path(__file__).resolve().parent

#: The twelve built-in scenarios of the suite workloads, pinned so a new
#: built-in does not silently change the workload.
SUITE: Tuple[str, ...] = (
    "cooling_duqu",
    "cooling_flame",
    "cooling_sabotage_physics",
    "cooling_screening_fractional",
    "cooling_screening_full",
    "cooling_screening_pb",
    "cooling_stuxnet",
    "cooling_stuxnet_aggressive",
    "cooling_stuxnet_response",
    "smart_grid_duqu",
    "smart_grid_stuxnet",
    "smoke",
)
#: The paper's two case studies (``paper_pipeline``).
PAPER_CASES: Tuple[str, ...] = ("cooling_stuxnet", "smart_grid_stuxnet")
#: Step-1 Monte Carlo sizes of ``paper_pipeline``.
SAN_REPLICATIONS = 20_000
TREE_REPLICATIONS = 20_000
#: The streamed campaign of ``campaign_stream`` (~1 s, so a run holds
#: ~30 repetitions; 33 spilled shards).
STREAM_SCENARIO = "cooling_duqu"
STREAM_REPLICATIONS = 100_000
STREAM_BATCH_SIZE = 256
STREAM_MAX_RECORDS_IN_RAM = 3_000
#: ``batch_size`` of the batched suite.
SUITE_BATCH_SIZE = 64

WORKLOADS: Tuple[str, ...] = (
    "suite12",
    "suite12_batch64",
    "campaign_stream",
    "paper_pipeline",
)


def load_reference() -> Dict[str, Any]:
    with open(HERE / "reference.json") as handle:
        return json.load(handle)


def peak_rss_mb() -> float:
    """Peak resident set of this interpreter (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _impaired(marking) -> bool:
    return marking["impaired"] > 0


def _seed_sequence(entropy: str, spawn_key: Sequence[int]):
    import numpy as np

    return np.random.SeedSequence(int(entropy), spawn_key=tuple(spawn_key))


def _seed_material(provenance) -> List[Any]:
    return [provenance.entropy, list(provenance.spawn_key)]


def check_table(
    checks: layers.Checks, label: str, table, rows: int
) -> bool:
    """Schema and row-count check of one record table."""
    schema = set(layers.RESPONSE_COLUMNS) <= set(table.columns)
    return checks.check(
        schema and len(table) == rows, f"{label}: schema/row count"
    )


def check_pinned(
    checks: layers.Checks,
    label: str,
    pinned: Dict[str, str],
    seed: int,
    digest: str,
) -> Optional[bool]:
    """Compare a records digest with the one pinned for ``seed``.

    Seeds without a pinned digest are not checked (returns ``None``);
    ``run.py`` still checks bit-identity across fresh interpreters.
    """
    expected = pinned.get(str(seed))
    if expected is None:
        return None
    return checks.check(
        layers.short(digest) == expected,
        f"{label}: records digest differs from the one pinned for seed {seed}",
    )


# ---- end-to-end runs (tracing off) ----------------------------------------

#: Public calls whose every entry and exit cuts the untraced wall time
#: into segments: the per-design-run work unit, single campaign and SAN
#: replications, batch-engine bodies and streaming appends.  A method a
#: later version lacks is skipped (the cut just gets coarser).
MARKED_CALLS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.core.measurement", "MeasurementPlan", "execute_run"),
    ("repro.attacks.campaign", "AttackCampaign", "run"),
    ("repro.attacks.batched", "CampaignBatchEngine", "run_rows"),
    ("repro.attacks.batched", "CampaignBatchEngine", "run_outcomes"),
    ("repro.results.streaming", "StreamingTableBuilder", "append_rows"),
    ("repro.results.streaming", "StreamingTableBuilder", "append_table"),
    ("repro.san.simulator", "SANSimulator", "simulate"),
)
#: ``attacktree.monte_carlo`` runs in chunks of this many replications
#: on one generator (the same draws as one call), so its time is cut too.
TREE_CHUNK = 1000


class _Mark:
    """Context manager marking its entry and exit on a timeline."""

    __slots__ = ("timeline",)

    def __init__(self, timeline: "Timeline") -> None:
        self.timeline = timeline

    def __enter__(self) -> None:
        self.timeline.mark()

    def __exit__(self, *exc: Any) -> None:
        self.timeline.mark()


class Timeline:
    """``perf_counter`` marks at deterministic points of an untraced run.

    The differences of consecutive marks are the run's segments; with
    the workload's first and last mark they sum to its wall time.  The
    same seed and code cut every run at the same points, which lets
    ``run.py`` take each segment's fastest time across runs.
    """

    def __init__(self) -> None:
        self.marks = array("d")
        self._mark = _Mark(self)

    def mark(self) -> float:
        now = time.perf_counter()
        self.marks.append(now)
        return now

    def span(self, name: str) -> _Mark:
        return self._mark

    def mark_calls(self, cls, method: str) -> None:
        """Mark every entry into and exit from ``cls.method``."""
        original = getattr(cls, method, None)
        if original is None:
            return
        marks, clock = self.marks, time.perf_counter

        @functools.wraps(original)
        def marked(self, *args, **kwargs):
            marks.append(clock())
            try:
                return original(self, *args, **kwargs)
            finally:
                marks.append(clock())

        setattr(cls, method, marked)

    def mark_library_calls(self) -> None:
        for module_name, class_name, method in MARKED_CALLS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            cls = getattr(module, class_name, None)
            if cls is not None:
                self.mark_calls(cls, method)

    def segments(self) -> List[float]:
        marks = self.marks
        return [marks[i + 1] - marks[i] for i in range(len(marks) - 1)]


def suite_e2e(session, seed: int, batch_size: Optional[int], ref, checks, timeline):
    started = timeline.mark()
    result = session.run(list(SUITE), seed=seed, batch_size=batch_size)
    wall_s = timeline.mark() - started
    rss = peak_rss_mb()
    checks.check(result.names() == list(SUITE), "suite: scenario order")
    parts = []
    reps = 0
    for item in result.results:
        name = item.scenario.name
        reps += item.n_runs * item.replications
        check_table(checks, name, item.table, ref["rows"][name])
        parts.append((name, layers.table_digest(item.table)))
        if batch_size is not None:
            observed = {
                column: moments.to_dict()
                for column, moments in layers.column_moments(item.table).items()
            }
            bad = layers.distribution_failures(
                observed, ref["suite12"]["scalar_stats"][name]
            )
            checks.check(
                not bad,
                f"{name}: batched means disagree with the scalar reference "
                f"({', '.join(bad)})",
            )
    digest = layers.combined_digest(parts)
    if batch_size is None:
        check_pinned(checks, "suite12", ref["suite12"]["digests"], seed, digest)
    replay = {
        "seeds": [
            [item.scenario.name, *_seed_material(item.provenance)]
            for item in result.results
        ]
    }
    return wall_s, reps, rss, digest, replay


def campaign_e2e(session, seed: int, ref, checks, timeline):
    started = timeline.mark()
    result = session.campaign(
        STREAM_SCENARIO,
        STREAM_REPLICATIONS,
        seed=seed,
        batch_size=STREAM_BATCH_SIZE,
        max_records_in_ram=STREAM_MAX_RECORDS_IN_RAM,
    )
    wall_s = timeline.mark() - started
    rss = peak_rss_mb()
    table = result.table
    check_table(checks, STREAM_SCENARIO, table, STREAM_REPLICATIONS)
    observed = {
        column: moments.to_dict()
        for column, moments in layers.column_moments(table).items()
    }
    bad = layers.distribution_failures(
        observed, ref["campaign_stream"]["scalar_stats"]
    )
    checks.check(
        not bad,
        f"{STREAM_SCENARIO}: batched means disagree with the scalar "
        f"reference ({', '.join(bad)})",
    )
    digest = layers.combined_digest([(STREAM_SCENARIO, layers.table_digest(table))])
    replay = {"seeds": [[STREAM_SCENARIO, *_seed_material(result.provenance)]]}
    return wall_s, STREAM_REPLICATIONS, rss, digest, replay


def _step1(scenario, seed: int, span: Callable[[str], Any]):
    """Step-1 model solution of one case study: exact CTMC impaired
    mass, SAN Monte Carlo and attack-tree evaluation + Monte Carlo."""
    import numpy as np
    from repro.attacktree.analysis import evaluate, monte_carlo
    from repro.core.modeling import attack_tree_for
    from repro.san.ctmc import san_to_ctmc
    from repro.san.simulator import SANSimulator

    with span("san.model"):
        model = scenario.build_san_model(give_up=True)
    with span("san.ctmc"):
        ctmc = san_to_ctmc(model)
        distribution = ctmc.transient_distribution(scenario.horizon)
        exact = float(
            sum(
                distribution[index]
                for index, state in enumerate(ctmc.states)
                if dict(state).get("impaired")
            )
        )
    with span("san.mc"):
        runs = SANSimulator(model).batch(
            scenario.horizon, SAN_REPLICATIONS, rng=seed, stop=_impaired
        )
    with span("attacktree.build"):
        tree = attack_tree_for(
            scenario.build_network(),
            scenario.build_catalog(),
            scenario.build_threat(),
        )
    with span("attacktree.eval"):
        analytic = evaluate(tree).probability
    rng = np.random.default_rng(seed)
    times: List[float] = []
    for start in range(0, TREE_REPLICATIONS, TREE_CHUNK):
        with span("attacktree.mc"):
            size = min(TREE_CHUNK, TREE_REPLICATIONS - start)
            times.extend(monte_carlo(tree, size, rng)[1])
    return {
        "exact": exact,
        "san_successes": sum(1 for run in runs if run.stopped),
        "analytic": analytic,
        "tree_successes": len(times),
    }


def _no_span(name: str) -> contextlib.nullcontext:
    return contextlib.nullcontext()


def check_step1(checks: layers.Checks, name: str, solved: Dict[str, Any]) -> None:
    checks.check(
        layers.ci_contains(solved["san_successes"], SAN_REPLICATIONS, solved["exact"]),
        f"{name}: SAN Monte Carlo PSA excludes the exact CTMC impaired "
        f"mass {solved['exact']:.4f}",
    )
    checks.check(
        layers.ci_contains(
            solved["tree_successes"], TREE_REPLICATIONS, solved["analytic"]
        ),
        f"{name}: attack-tree Monte Carlo excludes evaluate() "
        f"probability {solved['analytic']:.4f}",
    )


def paper_e2e(session, seed: int, ref, checks, timeline):
    started = timeline.mark()
    outputs = []
    for name in PAPER_CASES:
        study = session.full_study(name, seed=seed)
        solved = _step1(session.scenario(name), seed, timeline.span)
        outputs.append((name, study, solved))
    wall_s = timeline.mark() - started
    rss = peak_rss_mb()
    parts = []
    reps = 0
    for name, study, solved in outputs:
        reps += study.design.n_runs * study.measurement.replications
        reps += SAN_REPLICATIONS + TREE_REPLICATIONS
        check_table(checks, name, study.table, ref["rows"][name])
        parts.append((name, layers.table_digest(study.table)))
        check_step1(checks, name, solved)
    digest = layers.combined_digest(parts)
    check_pinned(
        checks, "paper_pipeline", ref["paper_pipeline"]["digests"], seed, digest
    )
    replay = {
        "seeds": [
            [name, *_seed_material(study.provenance)]
            for name, study, _ in outputs
        ]
    }
    return wall_s, reps, rss, digest, replay


def run_e2e(workload: str, session, seed: int) -> Dict[str, Any]:
    ref = load_reference()
    checks = layers.Checks()
    timeline = Timeline()
    timeline.mark_library_calls()
    if workload == "suite12":
        out = suite_e2e(session, seed, None, ref, checks, timeline)
    elif workload == "suite12_batch64":
        out = suite_e2e(session, seed, SUITE_BATCH_SIZE, ref, checks, timeline)
    elif workload == "campaign_stream":
        out = campaign_e2e(session, seed, ref, checks, timeline)
    else:
        out = paper_e2e(session, seed, ref, checks, timeline)
    wall_s, reps, rss, digest, replay = out
    replay["digest"] = digest
    return {
        "wall_s": wall_s,
        "segments": timeline.segments(),
        "reps": reps,
        "peak_rss_mb": rss,
        "replay": replay,
        "attempted": checks.attempted,
        "failures": checks.failures,
    }


# ---- traced replay ---------------------------------------------------------


def _wrap_method(cls, method: str, span: Callable[[str], Any], name: str) -> None:
    """Time every call of a public method under span ``name``."""
    original = getattr(cls, method)

    @functools.wraps(original)
    def timed(self, *args, **kwargs):
        with span(name):
            return original(self, *args, **kwargs)

    setattr(cls, method, timed)


def instrument(span: Callable[[str], Any]) -> None:
    """Spans around layer entry points the library does not trace:
    batch-engine bodies, streaming appends, streaming summaries and
    SAN replications (whose time would otherwise land in the
    ``exec.map`` that dispatches them)."""
    from repro.attacks.batched import CampaignBatchEngine
    from repro.results.streaming import StreamingSummary, StreamingTableBuilder
    from repro.san.simulator import SANSimulator

    _wrap_method(CampaignBatchEngine, "run_rows", span, "batch.engine")
    _wrap_method(CampaignBatchEngine, "run_outcomes", span, "batch.engine")
    _wrap_method(StreamingTableBuilder, "append_rows", span, "streaming.append")
    _wrap_method(StreamingTableBuilder, "append_table", span, "streaming.append")
    _wrap_method(StreamingSummary, "observe_columns", span, "results.summarize")
    _wrap_method(SANSimulator, "simulate", span, "san.simulate")


def replay_scenario(spec, seq, batch_size, span):
    """The suite work unit as public calls (mirrors the library's
    per-scenario body: build, design, measure, assess, summarize)."""
    from repro.core.assessment import assess
    from repro.core.measurement import MeasurementPlan
    from repro.core.study import DiversityStudy
    from repro.results import summarize_records
    from repro.scenarios.spec import Scenario

    with span("scenarios.build"):
        scenario = Scenario.from_dict(spec)
        study = DiversityStudy.from_scenario(scenario)
    with span("doe.design"):
        design = study.build_design(study.build_factors())
    with span("measurement.execute"):
        plan = MeasurementPlan(
            study.network_factory,
            study.catalog,
            study.threat,
            design,
            replications=study.replications,
            campaign_config=study.campaign_config,
            batch_size=batch_size,
        )
        measurement = plan.execute(seq)
    with span("assessment.assess"):
        try:
            assessment = assess(measurement)
            for response in measurement.response_names():
                assessment.recommended_diversification(response)
        except Exception:
            pass  # degenerate measurements are tolerated by suites too
    with span("results.summarize"):
        summarize_records(measurement.table)
    return measurement.table, design.n_runs


def replay_study(session, name, seq, span):
    """``Session.full_study`` as public calls."""
    from repro.core.assessment import assess
    from repro.core.measurement import MeasurementPlan
    from repro.core.modeling import attack_tree_for, san_model_for
    from repro.core.study import DiversityStudy
    from repro.exec import ExperimentRunner

    with span("scenarios.build"):
        scenario = session.scenario(name)
        study = DiversityStudy.from_scenario(scenario, runner=ExperimentRunner())
        baseline = study.network_factory()
    with span("san.model"):
        san_model_for(baseline, study.catalog, study.threat)
    with span("attacktree.build"):
        attack_tree_for(baseline, study.catalog, study.threat)
    with span("doe.design"):
        design = study.build_design(study.build_factors())
    with span("measurement.execute"):
        plan = MeasurementPlan(
            study.network_factory,
            study.catalog,
            study.threat,
            design,
            replications=study.replications,
            campaign_config=study.campaign_config,
        )
        measurement = plan.execute(seq, runner=study.runner)
    with span("assessment.assess"):
        assess(measurement)
    return scenario, measurement.table, design.n_runs


def replay_campaign(session, seq, span):
    """``Session.campaign`` (streamed, batched) as public calls."""
    from repro.attacks.campaign import AttackCampaign
    from repro.exec import ExperimentRunner
    from repro.results import StreamingSummary

    with span("scenarios.build"):
        scenario = session.scenario(STREAM_SCENARIO)
        campaign = AttackCampaign(
            scenario.build_network(),
            scenario.build_catalog(),
            scenario.build_threat(),
            scenario.build_campaign_config(),
        )
    aggregate = StreamingSummary()
    with span("campaign.run_batch_table"):
        table = campaign.run_batch_table(
            STREAM_REPLICATIONS,
            rng=seq,
            runner=ExperimentRunner(),
            max_records_in_ram=STREAM_MAX_RECORDS_IN_RAM,
            aggregators=(aggregate,),
            batch_size=STREAM_BATCH_SIZE,
        )
    with span("results.summarize"):
        aggregate.summary()
    return table


def fallback_census(session, names: Sequence[str]) -> Dict[str, str]:
    """``{scenario: fallback_reason}`` for every scenario whose baseline
    campaign the batch engine cannot vectorize."""
    from repro.attacks.batched import CampaignBatchEngine
    from repro.attacks.campaign import AttackCampaign

    reasons: Dict[str, str] = {}
    for name in names:
        scenario = session.scenario(name)
        engine = CampaignBatchEngine(
            AttackCampaign(
                scenario.build_network(),
                scenario.build_catalog(),
                scenario.build_threat(),
                scenario.build_campaign_config(),
            )
        )
        if not engine.vectorized:
            reasons[name] = str(engine.fallback_reason)
    return reasons


def plant_step_seconds(session, names: Sequence[str], repeats: int = 5) -> float:
    """One healthy horizon of plant physics (``PhysicalProcess.step`` +
    damage update) per distinct (plant, tick, horizon) of the workload's
    scenarios, summed; the median of ``repeats`` timings."""
    factories = {}
    for name in names:
        scenario = session.scenario(name)
        shape = (scenario.plant, scenario.tick_interval, scenario.horizon)
        if shape not in factories:
            factories[shape] = scenario.build_campaign_config().plant_factory
    shapes = sorted(factories)
    timings = []
    for _ in range(repeats):
        total = 0.0
        for plant_kind, tick, horizon in shapes:
            started = time.perf_counter()
            plant = factories[(plant_kind, tick, horizon)]()
            registers = dict(plant.default_registers())
            damage = plant.make_damage_model()
            dt_seconds = tick * 3600.0
            for k in range(1, int(round(horizon / tick)) + 1):
                plant.step(registers, dt=dt_seconds)
                damage.update(plant.stress_level(), dt_seconds, k * tick)
            total += time.perf_counter() - started
        timings.append(total)
    return layers.median(timings)


def run_trace(workload: str, session, seed: int, replay: Dict[str, Any]) -> Dict[str, Any]:
    from repro.telemetry import Telemetry

    checks = layers.Checks()
    telemetry = Telemetry()
    span = telemetry.span
    instrument(span)
    batch_size = None
    design_runs = 0
    campaigns = 0  # AttackCampaigns built outside design runs
    names = [item[0] for item in replay["seeds"]]
    tables = []
    with telemetry.activate():
        started = time.perf_counter()
        if workload in ("suite12", "suite12_batch64"):
            if workload == "suite12_batch64":
                batch_size = SUITE_BATCH_SIZE
            specs = {name: session.scenario(name).to_dict() for name in names}
            for name, entropy, spawn_key in replay["seeds"]:
                table, n_runs = replay_scenario(
                    specs[name], _seed_sequence(entropy, spawn_key), batch_size, span
                )
                design_runs += n_runs
                tables.append((name, table))
        elif workload == "campaign_stream":
            batch_size = STREAM_BATCH_SIZE
            _, entropy, spawn_key = replay["seeds"][0]
            table = replay_campaign(session, _seed_sequence(entropy, spawn_key), span)
            tables.append((STREAM_SCENARIO, table))
            campaigns = 1
        else:
            for name, entropy, spawn_key in replay["seeds"]:
                scenario, table, n_runs = replay_study(
                    session, name, _seed_sequence(entropy, spawn_key), span
                )
                _step1(scenario, seed, span)
                design_runs += n_runs
                tables.append((name, table))
        traced_wall_s = time.perf_counter() - started
    snapshot = telemetry.snapshot()

    digest = layers.combined_digest(
        [(name, layers.table_digest(table)) for name, table in tables]
    )
    checks.check(
        digest == replay["digest"],
        f"{workload}: traced replay did not reproduce the untraced records digest",
    )

    counters = snapshot.metrics.get("counters", {})
    maxima = snapshot.metrics.get("gauge_maxima", {})
    fallbacks = fallback_census(session, names)
    metrics: Dict[str, float] = dict(layers.layer_breakdown(snapshot.spans, traced_wall_s))
    metrics.update(
        {
            "trace.wall_s": traced_wall_s,
            "measurement.execute_s": layers.outer_total(
                snapshot.spans, "measurement.execute"
            ),
            "doe.runs": design_runs,
            "campaign.instances": design_runs + campaigns,
            "plant.step_s": plant_step_seconds(session, names),
            "batch.fallback_scenarios": len(fallbacks),
            "batch.lane_utilization": layers.lane_utilization(
                counters.get("batch.lanes", 0.0),
                counters.get("batch.batches", 0.0),
                batch_size,
            ),
            "streaming.peak_resident_rows": maxima.get(
                "streaming.peak_resident_rows", 0.0
            ),
        }
    )
    for counter in (
        "campaign.replications",
        "campaign.ticks_elided",
        "campaign.ticks_executed",
        "campaign.sabotage_resumes",
        "batch.batches",
        "batch.lanes",
        "batch.lane_steps",
        "streaming.spills",
        "streaming.bytes_spilled",
        "exec.units",
        "exec.chunks",
        "exec.dispatches",
    ):
        metrics[counter] = counters.get(counter, 0.0)
    return {
        "metrics": metrics,
        "fallbacks": fallbacks,
        "attempted": checks.attempted,
        "failures": checks.failures,
    }


def run_forked(workload: str, session, seed: int, cpu: Optional[int]) -> bool:
    """One untraced run in a forked copy of this set-up interpreter.

    The copy starts from the state right after set-up, so the run pays
    every cost a fresh interpreter pays after set-up (lazy imports,
    first-call caches); only set-up itself is shared.  The copy prints
    the run's JSON line itself, so this process never holds it and every
    copy starts from the same memory.  It runs pinned to ``cpu`` when
    given.  Returns whether the copy succeeded (a failed one is reported
    by a line with an ``error`` key).
    """
    if threading.active_count() > 1:
        raise RuntimeError("set-up started a thread; forking it is unsafe")
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            if cpu is not None:
                os.sched_setaffinity(0, {cpu})
            print(json.dumps(run_e2e(workload, session, seed)))
            code = 0
        except Exception:
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        print(json.dumps({"error": f"forked e2e run exited with code {code}"}))
    return code == 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--mode", required=True, choices=("e2e", "trace"))
    parser.add_argument(
        "--budget",
        type=float,
        default=0.0,
        help="e2e: repeat forked runs while they fit this many seconds "
        "after start (at least one)",
    )
    parser.add_argument(
        "--first-cpu",
        type=int,
        default=0,
        help="e2e: index of the CPU the first forked run is pinned to",
    )
    args = parser.parse_args(argv)

    begun = time.monotonic()
    print(layers.SETUP_BEGIN, file=sys.stderr, flush=True)
    started = time.perf_counter()
    import repro  # noqa: F401  (the import cost users pay is the metric)
    from repro.api import Session

    session = Session()
    setup_s = time.perf_counter() - started
    print(layers.SETUP_END, file=sys.stderr, flush=True)

    if args.mode == "e2e":
        # One line per forked run, then the set-up line.  Runs alternate
        # between the CPUs this process may use (the --first-cpu-th
        # first): other tenants of a shared host often slow one CPU and
        # not the other, and every segment keeps its fastest run.
        cpus = sorted(os.sched_getaffinity(0))
        last = 0.0
        for index in itertools.count(args.first_cpu):
            run_started = time.monotonic()
            cpu = cpus[index % len(cpus)] if len(cpus) > 1 else None
            ok = run_forked(args.workload, session, args.seed, cpu)
            last = time.monotonic() - run_started
            if not ok or time.monotonic() - begun + last > args.budget:
                break
        out: Dict[str, Any] = {}
    else:
        out = run_trace(args.workload, session, args.seed, json.load(sys.stdin))
    out["setup_s"] = setup_s
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
