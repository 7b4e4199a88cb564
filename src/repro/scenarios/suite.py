"""Suite execution: fan scenarios out, cache them, compare them.

:class:`ScenarioSuite` runs a set of scenarios on a
:class:`~repro.exec.runner.ExperimentRunner`.  Each scenario becomes one
work unit seeded with its own centrally spawned
:class:`~numpy.random.SeedSequence` child, so a suite's per-scenario
records are a pure function of ``(root seed, scenario position)`` —
bit-identical across the ``serial``, ``thread`` and ``process`` backends
and any worker count, exactly like the single-study guarantees of
:mod:`repro.exec`.

Work units ship scenario *specs* (plain dicts) to the workers and return
:class:`ScenarioRunResult` — a columnar
:class:`~repro.results.RecordTable` plus summary scalars, all
picklable — rather than full :class:`~repro.core.study.StudyResult`
objects, whose SAN models hold non-picklable marking callables.

Two scale features ride on the same seeding discipline:

* **Content-addressed caching** (``cache_dir=``): each scenario's table
  is stored under the SHA-256 digest of its spec plus seed material, so
  a re-run with a warm cache loads results from disk (bit-identical to
  a cold run) and *any* change to a spec field or the seed is a miss.
* **Sharding** (``shard=(index, count)``): seeds are spawned for the
  *full* scenario list before the shard is selected, so shards executed
  anywhere — even on different machines sharing a cache directory —
  merge (:meth:`SuiteResult.merge`) into exactly the single-run result.
"""

from __future__ import annotations

import logging
import traceback as _traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.core.assessment import assess
from repro.core.measurement import MeasurementPlan
from repro.core.report import comparison_table
from repro.core.study import DiversityStudy
from repro.exec.options import RunOptions
from repro.exec.runner import ExperimentRunner
from repro.exec.seeding import SeedLike, as_seed_sequence, spawn_sequences
from repro.results import (
    RESPONSE_COLUMNS,
    SUMMARY_METRICS,
    Provenance,
    RecordTable,
    ResultCache,
    SuiteStreamingAggregator,
    TableRecordsMixin,
    content_key,
    provenance_for,
    summarize_records,
)
from repro.results.streaming import LazyPart, ShardedRecordTable
from repro.scenarios.journal import RunJournal
from repro.scenarios.registry import SCENARIOS, ScenarioRegistry
from repro.scenarios.spec import Scenario
from repro.telemetry.core import (
    TelemetrySnapshot,
    emit_event,
    metric_inc,
    trace,
)

_LOG = logging.getLogger(__name__)

#: Columns of the cross-scenario comparison, in report order — the
#: summary keys produced by :func:`repro.results.summarize_records`.
COMPARISON_METRICS = SUMMARY_METRICS


@dataclass
class ScenarioRunResult(TableRecordsMixin):
    """One scenario's outcome inside a suite.

    Attributes:
        scenario: The executed spec.
        table: Columnar long-format per-replication measurement records
            (factor levels + ``success``/``tta``/``ttsf``/
            ``final_ratio`` responses).
        summary: Scalar metrics over the records — ``psa`` (fraction of
            successful campaigns), restricted means ``tta_mean`` /
            ``ttsf_mean`` (censored values count the horizon) and
            ``final_ratio_mean``.
        top_targets: ``{response: component}`` — the first recommended
            diversification target per response (``"--"`` when the
            assessment is degenerate, e.g. zero-variance smoke runs).
        design_name: Name of the executed DoE design.
        n_runs: Design runs executed.
        replications: Replications per run.
        provenance: Reproduction record (spec digest, seed material,
            backend, library version) — set by the executing suite or
            session; ``None`` on results rebuilt from bare cache entries
            outside a run.
        telemetry: Observability snapshot of the run that produced this
            result (set by :class:`~repro.api.Session` when telemetry
            is enabled).  Like ``Provenance.execution``, deliberately
            outside the spec digest — never part of cache keys.
    """

    scenario: Scenario
    table: RecordTable
    summary: Dict[str, float]
    top_targets: Dict[str, str]
    design_name: str
    n_runs: int
    replications: int
    provenance: Optional[Provenance] = None
    telemetry: Optional[TelemetrySnapshot] = None


def _execute_scenario(
    spec: Dict[str, object],
    seq: np.random.SeedSequence,
    options: RunOptions,
) -> "ScenarioRunResult | ScenarioFailure":
    """Suite work unit: rebuild the scenario, run its study, summarize.

    Module-level so the ``process`` backend can pickle it.  Seeding is
    spawn-per-replication, so the result depends only on ``(spec, seq,
    options.batch_size)``.  Under ``on_error="skip"`` a failing scenario
    returns a :class:`ScenarioFailure` with its full traceback instead
    of sinking its siblings; injected infrastructure faults fire in the
    chunk gates *outside* this unit, so retry still sees them.
    """
    try:
        scenario = Scenario.from_dict(spec)
        study = DiversityStudy.from_scenario(scenario)
        factors = study.build_factors()
        design = study.build_design(factors)
        plan = MeasurementPlan(
            study.network_factory,
            study.catalog,
            study.threat,
            design,
            replications=study.replications,
            campaign_config=study.campaign_config,
            batch_size=options.batch_size,
        )
        with trace("scenario.execute"):
            measurement = plan.execute(
                seq, max_records_in_ram=options.max_records_in_ram
            )
        top_targets: Dict[str, str] = {}
        try:
            assessment = assess(measurement)
            for response in measurement.response_names():
                targets = assessment.recommended_diversification(response)
                top_targets[response] = targets[0] if targets else "--"
        except Exception:
            # Degenerate measurements (zero-variance smoke runs) must
            # not sink the whole suite; the comparison shows "--".
            top_targets = {
                response: "--" for response in measurement.response_names()
            }
        return ScenarioRunResult(
            scenario=scenario,
            table=measurement.table,
            summary=summarize_records(measurement.table),
            top_targets=top_targets,
            design_name=design.name,
            n_runs=design.n_runs,
            replications=study.replications,
        )
    except Exception as exc:
        if options.on_error == "raise":
            raise
        return ScenarioFailure(
            scenario=str(spec.get("name", "<unnamed>")),
            error_type=type(exc).__name__,
            message=str(exc),
            traceback=_traceback.format_exc(),
        )


@dataclass
class ScenarioFailure:
    """One scenario's failure inside an ``on_error="skip"`` suite run.

    Attributes:
        scenario: Name of the failed scenario.
        error_type: Exception class name.
        message: ``str(exception)``.
        traceback: Full formatted traceback from where the scenario
            actually ran (worker-side for pool backends).
        position: The scenario's position in the executed suite order
            (set by the coordinating suite).
    """

    scenario: str
    error_type: str
    message: str
    traceback: str
    position: int = -1

    def __str__(self) -> str:
        return (
            f"scenario {self.scenario!r} failed: "
            f"{self.error_type}: {self.message}"
        )


def _scenario_response_view(chunk: RecordTable, name: str) -> RecordTable:
    """One chunk's response columns prefixed with a scenario column."""
    n = len(chunk)
    scenario_column = np.empty(n, dtype=object)
    scenario_column[:] = [name] * n
    columns: Dict[str, np.ndarray] = {"scenario": scenario_column}
    for column in RESPONSE_COLUMNS:
        columns[column] = chunk.column(column)
    return RecordTable(columns)


@dataclass
class SuiteResult:
    """All scenario results of one suite run, in suite order.

    Attributes:
        results: Per-scenario results.
        provenance: Reproduction record of the whole suite run (digest
            over every executed spec, root seed material, backend);
            ``None`` on merged shard results, whose parts each carry
            their own provenance.
        aggregate: Streaming per-scenario/pooled summaries, present
            when the run was given streaming aggregators (see
            :meth:`ScenarioSuite.run`); :meth:`merge` combines them in
            O(summary).
        telemetry: Observability snapshot of the run (set by
            :class:`~repro.api.Session` when telemetry is enabled);
            outside the spec digest, ``None`` on merged results.
        errors: Per-scenario failures of an ``on_error="skip"`` run, in
            suite order, each carrying the full formatted traceback of
            where the scenario actually failed.  Empty on fully
            successful runs (and always under ``on_error="raise"``,
            which surfaces the first failure as an exception instead).
    """

    results: List[ScenarioRunResult]
    provenance: Optional[Provenance] = None
    aggregate: Optional[SuiteStreamingAggregator] = None
    telemetry: Optional[TelemetrySnapshot] = None
    errors: List[ScenarioFailure] = field(default_factory=list)

    @property
    def table(self) -> RecordTable:
        """Response rows of every scenario as one columnar table.

        Factor columns differ across scenarios, so the combined table
        carries the shared response columns prefixed with a
        ``scenario`` name column — the cross-scenario long format the
        comparison metrics aggregate over.  Built once and cached on
        the instance (treat ``results`` as immutable after the run;
        :meth:`merge` always produces a fresh ``SuiteResult``).

        When any per-scenario table is sharded (a streaming run), the
        combined table is a lazily chained
        :class:`~repro.results.streaming.ShardedRecordTable` whose
        per-scenario views load one chunk at a time — the in-RAM
        default stays a plain eager :class:`RecordTable`.
        """
        cached = getattr(self, "_combined_table", None)
        if cached is not None:
            return cached
        streaming = any(
            isinstance(r.table, ShardedRecordTable) for r in self.results
        )
        if streaming:
            parts: List[LazyPart] = []
            schema = ["scenario", *RESPONSE_COLUMNS]
            sources: List[RecordTable] = []
            for result in self.results:
                name = result.scenario.name
                table = result.table
                sources.append(table)
                raw_parts = (
                    table.parts
                    if isinstance(table, ShardedRecordTable)
                    else None
                )
                if raw_parts is None:
                    parts.append(
                        LazyPart(
                            lambda t=table, nm=name: (
                                _scenario_response_view(t, nm)
                            ),
                            len(table),
                            schema,
                        )
                    )
                    continue
                for part in raw_parts:
                    parts.append(
                        LazyPart(
                            lambda p=part, nm=name: (
                                _scenario_response_view(p.load(), nm)
                            ),
                            part.n_rows,
                            schema,
                        )
                    )
            combined: RecordTable = ShardedRecordTable(
                parts, keepalive=sources
            )
        else:
            combined = RecordTable.concat(
                [
                    _scenario_response_view(result.table, result.scenario.name)
                    for result in self.results
                ]
            )
        self._combined_table = combined
        return combined

    @property
    def summary(self) -> Dict[str, float]:
        """Scalar comparison metrics pooled over every scenario's rows."""
        return summarize_records(self.table)

    def names(self) -> List[str]:
        """Scenario names in execution order."""
        return [r.scenario.name for r in self.results]

    def by_name(self, name: str) -> ScenarioRunResult:
        """The result for scenario ``name``.

        Raises:
            ValueError: If the suite did not run ``name``.
        """
        for result in self.results:
            if result.scenario.name == name:
                return result
        raise ValueError(
            f"scenario {name!r} not in suite; ran: {', '.join(self.names())}"
        )

    def tables_by_scenario(self) -> Dict[str, RecordTable]:
        """``{scenario name: columnar record table}``."""
        return {r.scenario.name: r.table for r in self.results}

    def records_by_scenario(self) -> Dict[str, List[Dict[str, object]]]:
        """``{scenario name: dict records}`` for determinism checks
        (materialized from the columnar tables)."""
        return {r.scenario.name: r.records for r in self.results}

    @classmethod
    def merge(cls, parts: Sequence["SuiteResult"]) -> "SuiteResult":
        """Combine shard results into one suite result.

        Because shard seeds are spawned from the full scenario list,
        merging every shard of a suite reproduces the unsharded result
        (up to scenario order, which follows the parts given).

        The merge itself is O(summary): result lists concatenate,
        streaming aggregator states (when every part carries one) fold
        together state-wise, and the combined ``table`` of a streaming
        run chains shard views lazily — no records are copied or read
        here.

        Raises:
            ValueError: If two parts ran the same scenario.
        """
        results = [r for part in parts for r in part.results]
        names = [r.scenario.name for r in results]
        duplicates = sorted({n for n in names if names.count(n) > 1})
        if duplicates:
            raise ValueError(
                f"duplicate scenario(s) across shards: "
                f"{', '.join(duplicates)}"
            )
        aggregate = None
        if parts and all(part.aggregate is not None for part in parts):
            aggregate = SuiteStreamingAggregator(
                quantiles=parts[0].aggregate.quantiles
            )
            for part in parts:
                aggregate.merge(part.aggregate)
        return cls(
            results=results,
            aggregate=aggregate,
            errors=[e for part in parts for e in part.errors],
        )

    def comparison_report(self) -> str:
        """The cross-scenario comparison table plus per-scenario hints."""
        summaries = {
            result.scenario.name: dict(
                result.summary,
                runs=result.n_runs,
                reps=result.replications,
            )
            for result in self.results
        }
        blocks = [
            comparison_table(
                "scenario",
                summaries,
                columns=("runs", "reps", *COMPARISON_METRICS),
                title=(
                    f"Cross-scenario comparison ({len(self.results)} "
                    "scenarios; restricted means, censored at each "
                    "scenario's horizon)"
                ),
            ),
            "",
            "First diversification target (TTA | detection):",
        ]
        for result in self.results:
            blocks.append(
                f"  {result.scenario.name}: "
                f"{result.top_targets.get('tta', '--')} | "
                f"{result.top_targets.get('ttsf', '--')}"
            )
        return "\n".join(blocks)


class ScenarioSuite:
    """Run several scenarios and compare them.

    Args:
        scenarios: Scenario specs, names (looked up in ``registry``),
            or a mix.
        registry: Where names are resolved (default: the library-wide
            catalog).
        runner: The :class:`~repro.exec.runner.ExperimentRunner` to fan
            scenarios out on (default: a serial one).  Results never
            depend on the runner, only wall-clock does.  Every argument
            after ``scenarios`` is keyword-only.
        cache: A ready :class:`~repro.results.ResultCache` instance;
            takes precedence over ``cache_dir``.
        cache_dir: Enable content-addressed result caching in this
            directory: a scenario whose ``(spec, seed material)`` digest
            is already cached loads from disk instead of executing, and
            fresh executions are stored.  Effective with explicit seeds
            (``seed=None`` draws fresh entropy, so every digest is
            new).  Cached and executed results are bit-identical.
        shard: ``(index, count)`` — execute only the scenarios at
            positions ``index, index + count, ...`` of the suite while
            seeding as if the whole suite ran; combine shard results
            with :meth:`SuiteResult.merge`.

    Example:
        >>> suite = ScenarioSuite(["smoke"])
        >>> result = suite.run(seed=7)
        >>> result.names()
        ['smoke']
    """

    def __init__(
        self,
        scenarios: Sequence[Union[str, Scenario]],
        *,
        registry: Optional[ScenarioRegistry] = None,
        cache_dir: Optional[str] = None,
        shard: Optional[Tuple[int, int]] = None,
        runner: Optional[ExperimentRunner] = None,
        cache: Optional[ResultCache] = None,
    ) -> None:
        registry = registry or SCENARIOS
        if not scenarios:
            raise ValueError("a suite needs at least one scenario")
        resolved: List[Scenario] = []
        for item in scenarios:
            resolved.append(
                registry.get(item) if isinstance(item, str) else item
            )
        names = [s.name for s in resolved]
        duplicates = sorted({n for n in names if names.count(n) > 1})
        if duplicates:
            raise ValueError(
                f"duplicate scenario(s) in suite: {', '.join(duplicates)}"
            )
        if shard is not None:
            index, count = shard
            if (
                not all(
                    isinstance(v, int) and not isinstance(v, bool)
                    for v in (index, count)
                )
                or count < 1
                or not 0 <= index < count
            ):
                raise ValueError(
                    f"shard must be (index, count) integers with "
                    f"0 <= index < count, got {shard!r}"
                )
        self.scenarios = resolved
        self.runner = runner or ExperimentRunner()
        if cache is not None:
            self.cache = cache
        else:
            self.cache = ResultCache(cache_dir) if cache_dir else None
        self.shard = shard

    @staticmethod
    def _cache_key(
        spec: "Scenario | Dict[str, object]",
        seq: np.random.SeedSequence,
        options: RunOptions = RunOptions(),
    ) -> str:
        """Content address of one scenario execution.

        Covers the full spec dict, the spawned child's seed material and
        the library version, so any spec-field or seed change — or an
        upgrade that may have changed simulation semantics — invalidates
        the entry instead of serving stale pre-upgrade results.  The hot
        path hands the pre-computed spec dict in; a bare
        :class:`Scenario` is accepted for convenience.

        ``batch_size`` joins the key only when set
        (:meth:`~repro.exec.RunOptions.record_identity`): mega-batch
        records are distribution-identical but not bit-identical to
        scalar records, so the two must not share cache entries.
        """
        import repro

        if isinstance(spec, Scenario):
            spec = spec.to_dict()
        payload: Dict[str, object] = {
            "format": 1,
            "library": repro.__version__,
            "scenario": spec,
            "entropy": str(seq.entropy),
            "spawn_key": [int(k) for k in seq.spawn_key],
            "pool_size": int(seq.pool_size),
        }
        payload.update(options.record_identity())
        return content_key(payload)

    @staticmethod
    def _result_meta(result: ScenarioRunResult) -> Dict[str, object]:
        return {
            "scenario": result.scenario.to_dict(),
            "summary": result.summary,
            "top_targets": result.top_targets,
            "design_name": result.design_name,
            "n_runs": result.n_runs,
            "replications": result.replications,
        }

    @staticmethod
    def _result_from_cache(
        table: RecordTable, meta: Mapping[str, object]
    ) -> ScenarioRunResult:
        return ScenarioRunResult(
            scenario=Scenario.from_dict(dict(meta["scenario"])),
            table=table,
            summary=dict(meta["summary"]),
            top_targets=dict(meta["top_targets"]),
            design_name=str(meta["design_name"]),
            n_runs=int(meta["n_runs"]),
            replications=int(meta["replications"]),
        )

    def run(
        self,
        seed: SeedLike = None,
        on_result: Optional[Callable[[ScenarioRunResult], None]] = None,
        cancel: Optional[Any] = None,
        aggregators: Sequence[Callable[[ScenarioRunResult], None]] = (),
        max_records_in_ram: Optional[int] = None,
        batch_size: Optional[int] = None,
        on_error: str = "raise",
        journal: Optional[Union[str, Path, RunJournal]] = None,
    ) -> SuiteResult:
        """Execute every (selected) scenario; records depend only on
        ``seed``, each scenario's position in the full suite and
        ``batch_size``, never on backend, worker count, sharding or
        cache state.

        Args:
            seed: Root seed (``None`` draws fresh entropy; the drawn
                entropy is recorded in the result's provenance).
            on_result: Optional progress hook, called once per finished
                scenario (cache hits included) in the coordinating
                thread.  Never affects results.
            cancel: Optional cancellation event (``is_set()`` protocol);
                once set, the run raises
                :class:`~repro.exec.backends.ExecutionCancelled`.
            aggregators: Callables fed every finished
                :class:`ScenarioRunResult` (cache hits included) in the
                coordinating thread — e.g.
                :class:`~repro.results.SuiteStreamingAggregator`, whose
                running summaries then land on the result's
                ``aggregate`` field.  Never affect records.
            max_records_in_ram: When set, each scenario's measurement
                table spills to ``.npz`` shards beyond this many rows
                (see :meth:`MeasurementPlan.execute
                <repro.core.measurement.MeasurementPlan.execute>`) and
                cache entries are stored as shard manifests.  Records
                are identical either way; the ``process`` backend
                materializes tables at the pickling boundary, so use
                ``serial``/``thread`` for out-of-core suites.  Recorded
                on ``provenance.execution``, outside the spec digest.
            batch_size: When set, campaign replications advance through
                the mega-batch lowering in lanes of this size (see
                :class:`repro.attacks.batched.CampaignBatchEngine`).
                ``batch_size=1`` records are bit-identical to the
                scalar path; larger vectorized batches are
                distribution-identical, so batched and scalar runs use
                distinct cache entries.  Recorded on
                ``provenance.execution``, outside the spec digest.
            on_error: ``"raise"`` (default) surfaces the first scenario
                failure as an exception, as always.  ``"skip"``
                isolates failures per scenario: failed scenarios are
                recorded in :attr:`SuiteResult.errors` (with full
                tracebacks) while their siblings run to completion.
                Either way, the scenarios that do complete are
                bit-identical.
            journal: Optional run-journal path (or
                :class:`~repro.scenarios.journal.RunJournal`): every
                completed scenario is checkpointed to a small atomic
                JSON file keyed by the run's content identity, so a
                crashed or cancelled run re-invoked with the same
                journal (and a cache) resumes from where it died.
                Advisory only — results never depend on it.

        Raises:
            TypeError / ValueError: On an invalid knob, naming it, before
                any scenario runs or any journal file is written.
        """
        options = RunOptions(batch_size, max_records_in_ram, on_error)
        return self._run(
            seed, options, on_result, cancel, aggregators, journal
        )

    def _run(
        self,
        seed: SeedLike,
        options: RunOptions,
        on_result: Optional[Callable[[ScenarioRunResult], None]] = None,
        cancel: Optional[Any] = None,
        aggregators: Sequence[Callable[[ScenarioRunResult], None]] = (),
        journal: Optional[Union[str, Path, RunJournal]] = None,
    ) -> SuiteResult:
        """:meth:`run` on already validated options."""
        with trace("suite.run"):
            root = as_seed_sequence(seed)
            sequences = spawn_sequences(root, len(self.scenarios))
            pairs = list(zip(self.scenarios, sequences))
            if self.shard is not None:
                index, count = self.shard
                pairs = pairs[index::count]
            # One spec dict per scenario, shared by the cache key, the
            # worker dispatch and the provenance payloads (asdict() is the
            # dominant cost of a fully warm cached run).
            spec_dicts = [scenario.to_dict() for scenario, _ in pairs]
            execution = options.execution

            if journal is not None and not isinstance(journal, RunJournal):
                journal = RunJournal(journal)
            if journal is not None:
                # The run's identity covers everything that decides the
                # records, so a journal only resumes the run it is for
                # (format 1 always has a batch_size entry, None if scalar).
                identity = {
                    "format": 1,
                    "scenarios": spec_dicts,
                    "entropy": str(root.entropy),
                    "spawn_key": [int(k) for k in root.spawn_key],
                    "shard": list(self.shard) if self.shard else None,
                    "batch_size": None,
                    **options.record_identity(),
                }
                resumable = journal.begin(
                    content_key(identity),
                    len(pairs),
                    meta={"scenarios": [s.name for s, _ in pairs]},
                )
                if resumable:
                    # The journal itself holds no results; the completed
                    # positions resume through their cache entries below
                    # (a missing entry simply re-executes, bit-identically).
                    metric_inc("journal.resumed_scenarios", len(resumable))
                    emit_event(
                        "journal.resume",
                        path=str(journal.path),
                        completed=len(resumable),
                        total=len(pairs),
                    )

            results: List[Optional[ScenarioRunResult]] = [None] * len(pairs)
            errors_by_position: Dict[int, ScenarioFailure] = {}

            def deliver(
                position: int,
                outcome: "ScenarioRunResult | ScenarioFailure",
                key: str,
                executed: bool,
            ) -> None:
                """Stream one finished outcome: stamp its provenance (before
                any hook sees it), slot it, checkpoint it (cache + journal),
                feed every hook.  Failures are recorded and isolated
                instead."""
                if isinstance(outcome, ScenarioFailure):
                    outcome.position = position
                    errors_by_position[position] = outcome
                    metric_inc("suite.scenario_failures")
                    emit_event(
                        "suite.scenario_failed",
                        scenario=outcome.scenario,
                        error=f"{outcome.error_type}: {outcome.message}",
                    )
                    _LOG.warning("%s (on_error=skip; continuing)", outcome)
                    return
                outcome.provenance = provenance_for(
                    {"scenario": spec_dicts[position]},
                    pairs[position][1],
                    self.runner,
                    source="scenario_suite",
                    execution=execution,
                )
                results[position] = outcome
                if executed and self.cache is not None:
                    self._store_in_cache(key, outcome)
                if journal is not None:
                    journal.mark(position, key)
                for aggregator in aggregators:
                    aggregator(outcome)
                if on_result is not None:
                    on_result(outcome)

            pending: List[Tuple[int, np.random.SeedSequence, str]] = []
            for position, (scenario, seq) in enumerate(pairs):
                if cancel is not None and cancel.is_set():
                    # The cache loop must honor the cancel contract too —
                    # a fully warm suite otherwise completes uncancellably.
                    from repro.exec.backends import ExecutionCancelled

                    raise ExecutionCancelled(
                        f"suite cancelled after {position} of "
                        f"{len(pairs)} scenarios"
                    )
                key = ""
                if self.cache is not None:
                    key = self._cache_key(spec_dicts[position], seq, options)
                    hit = self.cache.load(key)
                    if hit is not None:
                        metric_inc("cache.hit")
                        _LOG.debug(
                            "cache hit: scenario %s (key %.12s...)",
                            scenario.name, key,
                        )
                        deliver(
                            position,
                            self._result_from_cache(*hit),
                            key,
                            executed=False,
                        )
                        continue
                    metric_inc("cache.miss")
                    _LOG.debug(
                        "cache miss: scenario %s (key %.12s...)",
                        scenario.name, key,
                    )
                pending.append((position, seq, key))
            if pending:
                # Delivering as units complete (not after the whole map)
                # is what makes cache + journal real checkpoints: a crash
                # mid-suite keeps everything already finished.
                def unit_hook(
                    index: int,
                    outcome: "ScenarioRunResult | ScenarioFailure",
                ) -> None:
                    position, _, key = pending[index]
                    deliver(position, outcome, key, executed=True)

                self.runner.map(
                    _execute_scenario,
                    [
                        (spec_dicts[position], seq, options)
                        for position, seq, _ in pending
                    ],
                    # repro: allow[PICKLE001] on_result runs in the coordinator process and is never pickled to workers
                    on_result=unit_hook,
                    cancel=cancel,
                    collect=False,
                )
            if journal is not None:
                journal.finish()
            suite_aggregate = next(
                (
                    a
                    for a in aggregators
                    if isinstance(a, SuiteStreamingAggregator)
                ),
                None,
            )
            return SuiteResult(
                results=[r for r in results if r is not None],
                provenance=provenance_for(
                    {
                        "scenarios": spec_dicts,
                        "shard": list(self.shard) if self.shard else None,
                    },
                    root,
                    self.runner,
                    source="scenario_suite",
                    execution=execution,
                ),
                aggregate=suite_aggregate,
                errors=[
                    errors_by_position[p] for p in sorted(errors_by_position)
                ],
            )

    def _store_in_cache(self, key: str, result: ScenarioRunResult) -> None:
        """Cache one executed result; never let caching sink the run.

        Tables whose factor levels are not ``.npz``-serializable
        (non-string object columns, e.g. tuple levels) and filesystem
        failures (full/read-only cache directory) simply skip the
        cache — the executed result is still returned.
        """
        try:
            self.cache.store(key, result.table, self._result_meta(result))
        except (TypeError, OSError) as exc:
            metric_inc("cache.store_failures")
            _LOG.debug(
                "cache store failed for scenario %s: %s",
                result.scenario.name, exc,
            )
