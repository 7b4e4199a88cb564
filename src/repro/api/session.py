"""The session facade: one object owning every experiment resource.

A :class:`Session` bundles what the pre-facade entry points each
re-plumbed on their own — an
:class:`~repro.exec.runner.ExperimentRunner`, a
:class:`~repro.scenarios.registry.ScenarioRegistry` (built-ins plus any
file-based catalogs), an optional content-addressed
:class:`~repro.results.ResultCache` and a default seed policy — and
exposes the whole pipeline through two verbs:

* :meth:`Session.run` — synchronous execution of a scenario, a
  :class:`~repro.api.builder.StudyBuilder`, or a list of either (a
  suite), returning a :class:`~repro.api.result.RunResult`;
* :meth:`Session.submit` — the same work as a queued
  :class:`~repro.api.jobs.JobHandle` with status, partial progress,
  ``result()`` and cooperative ``cancel()``.

Results are bit-identical to the legacy entry points
(``ScenarioSuite.run``, ``MeasurementPlan.execute``, ...) for the same
seed — the facade lowers onto them, it does not fork them — which is
pinned by ``tests/test_api_equivalence.py``.
"""

from __future__ import annotations

import weakref
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, List, Optional, Sequence, Union

from repro.api.builder import StudyBuilder
from repro.api.jobs import JobHandle
from repro.telemetry import Telemetry, configure_logging
from repro.telemetry.profiling import PROFILE_MODES
from repro.api.result import CampaignRunResult, RunResult
from repro.attacks.campaign import AttackCampaign
from repro.core.study import DiversityStudy, StudyResult
from repro.exec.options import RunOptions
from repro.exec.resilience import RetryPolicy
from repro.exec.runner import ExperimentRunner
from repro.exec.seeding import SeedLike, as_seed_sequence
from repro.faults import FaultPlan, plan_from_env
from repro.results import (
    DEFAULT_MAX_RECORDS_IN_RAM,
    ResultCache,
    StreamingSummary,
    provenance_for,
    summarize_records,
)
from repro.scenarios.registry import SCENARIOS, ScenarioRegistry
from repro.scenarios.spec import Scenario
from repro.scenarios.suite import (
    ScenarioRunResult,
    ScenarioSuite,
    SuiteResult,
)

#: What Session.run/submit accept as a single experiment target.
StudyLike = Union[str, Scenario, StudyBuilder]
#: A single target or a suite of them.
TargetLike = Union[StudyLike, Sequence[StudyLike]]


class Session:
    """The public entry point of the library (see :mod:`repro.api`).

    Args:
        backend: Execution backend every run of this session uses
            (``"serial"`` / ``"thread"`` / ``"process"``).  Results
            never depend on it; wall-clock does.
        n_workers: Worker-pool width for parallel backends.
        seed: Default root seed for runs that do not pass one.  The
            default (``0``) makes every session reproducible out of the
            box; pass ``None`` to draw fresh OS entropy per run (the
            drawn entropy is still recorded in each result's
            provenance).
        cache_dir: Enable content-addressed result caching for scenario
            runs in this directory (see
            :class:`~repro.scenarios.suite.ScenarioSuite`).
        registry: Scenario catalog to resolve names in.  The default is
            a *copy* of the library-wide built-ins, so session-local
            additions never mutate the global catalog; an explicitly
            passed registry is used as-is (caller-owned).
        catalog_dirs: Directories of JSON scenario specs layered on top
            of ``registry`` via
            :meth:`~repro.scenarios.registry.ScenarioRegistry.load_dir`.
            The session gets its own registry copy — the library-wide
            catalog is never mutated.
        max_parallel_jobs: How many submitted jobs may execute
            concurrently (default 1: jobs queue in submission order,
            which keeps one parallel runner saturated instead of
            oversubscribing cores).
        chunk_size: Work units per pool task (see
            :class:`~repro.exec.runner.ExperimentRunner`); mostly for
            tests that want fine-grained job progress.
        telemetry: Observability for this session's runs.  ``False``
            (default) is a no-op fast path; ``True`` records a fresh
            span/metric/event snapshot per run and attaches it to the
            result (``result.telemetry``); ``"cprofile"`` /
            ``"tracemalloc"`` additionally profile each work unit; a
            :class:`~repro.telemetry.Telemetry` instance accumulates
            every run into that one caller-owned object.  Telemetry
            never affects records — snapshots live outside the spec
            digest, like ``Provenance.execution``.
        verbose: Attach a DEBUG stderr handler to the ``repro`` logger
            hierarchy (see :func:`repro.telemetry.configure_logging`);
            the library is silent by default (``NullHandler``).
        retry: Optional :class:`~repro.exec.resilience.RetryPolicy` for
            every run of this session — transient worker failures are
            retried with deterministic backoff, hung chunks are
            re-dispatched after the watchdog timeout, and dead process
            pools are respawned (then degraded to inline execution)
            instead of failing the run.  Retried work re-runs with its
            originally spawned seeds, so results never depend on the
            policy.  ``None`` keeps legacy fail-fast worker-error
            semantics (pool deaths are still survived).
        fault_plan: Optional :class:`~repro.faults.FaultPlan` injecting
            seeded crashes/hangs/kills/payload corruption into this
            session's execution — chaos testing only.  Defaults to the
            ``REPRO_FAULT_PLAN`` environment variable (unset = no
            injection, always); recorded on ``Provenance.execution``
            *outside* the spec digest.

    Example:
        >>> from repro.api import Session
        >>> with Session() as session:
        ...     result = session.run("smoke", seed=7)
        ...     round(result.summary["psa"], 3) >= 0.0
        True
    """

    def __init__(
        self,
        backend: str = "serial",
        n_workers: Optional[int] = None,
        *,
        seed: Optional[SeedLike] = 0,
        cache_dir: Optional[str] = None,
        registry: Optional[ScenarioRegistry] = None,
        catalog_dirs: Optional[Sequence[str]] = None,
        max_parallel_jobs: int = 1,
        chunk_size: Optional[int] = None,
        telemetry: Union[bool, str, Telemetry] = False,
        verbose: bool = False,
        retry: Optional[RetryPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        if max_parallel_jobs < 1:
            raise ValueError(
                f"max_parallel_jobs must be >= 1, got {max_parallel_jobs}"
            )
        if isinstance(telemetry, str) and telemetry not in PROFILE_MODES:
            raise ValueError(
                f"unknown telemetry profile {telemetry!r}; expected "
                f"True/False, a Telemetry instance, or one of "
                f"{[m for m in PROFILE_MODES if m]}"
            )
        self._telemetry_mode = telemetry
        if verbose:
            configure_logging()
        if fault_plan is None:
            fault_plan = plan_from_env()
        self.retry = retry
        self.fault_plan = fault_plan
        self.runner = ExperimentRunner(
            backend,
            n_workers,
            chunk_size,
            retry=retry,
            fault_plan=fault_plan,
        )
        if registry is not None:
            # A caller-supplied registry is caller-owned: use it as-is
            # (copy only if catalog dirs are layered on top).
            self.registry = registry.copy() if catalog_dirs else registry
        else:
            # Always a copy of the built-ins, so session-local additions
            # (registry.load_dir, registry.add) never leak into the
            # library-wide catalog.
            self.registry = SCENARIOS.copy()
        for directory in catalog_dirs or ():
            self.registry.load_dir(directory)
        self.cache = ResultCache(cache_dir) if cache_dir else None
        self.default_seed = seed
        self._max_parallel_jobs = max_parallel_jobs
        self._executor: Optional[ThreadPoolExecutor] = None
        # Weak references: a long-lived session must not pin every
        # finished job's result tables for its whole lifetime — a
        # handle (and its result) lives as long as the caller keeps it.
        self._jobs: List["weakref.ref[JobHandle]"] = []
        self._closed = False

    # ---- resource accessors ---------------------------------------------

    @property
    def backend_name(self) -> str:
        """The session runner's backend name."""
        return self.runner.backend_name

    def scenario(self, name_or_spec: Union[str, Scenario]) -> Scenario:
        """Resolve a scenario name in this session's registry (specs
        pass through unchanged).

        Raises:
            ValueError: For an unknown name.
        """
        if isinstance(name_or_spec, Scenario):
            return name_or_spec
        return self.registry.get(name_or_spec)

    def scenarios(self, tag: Optional[str] = None) -> List[Scenario]:
        """Registered scenarios, optionally filtered by tag."""
        return (
            self.registry.by_tag(tag) if tag else self.registry.all()
        )

    def study(self, target: StudyLike) -> StudyBuilder:
        """A fluent :class:`~repro.api.builder.StudyBuilder` over one
        scenario (name, spec, or an existing builder to extend)."""
        if isinstance(target, StudyBuilder):
            return target
        return StudyBuilder(self, self.scenario(target))

    # ---- target lowering -------------------------------------------------

    def _resolve_one(self, target: StudyLike) -> Scenario:
        if isinstance(target, StudyBuilder):
            return target.build()
        return self.scenario(target)

    def _resolve_targets(
        self, target: TargetLike
    ) -> tuple[List[Scenario], bool]:
        """``(scenarios, is_suite)`` for any accepted target shape."""
        if isinstance(target, (str, Scenario, StudyBuilder)):
            return [self._resolve_one(target)], False
        items = list(target)  # tolerate one-shot iterables
        for item in items:
            if not isinstance(item, StudyBuilder):
                continue
            for knob in ("seed", "batch_size"):
                if getattr(item, f"_{knob}") is not None:
                    raise ValueError(
                        f"builder for {item._base.name!r} pins its own "
                        f"{knob}, which is ambiguous inside a suite (one "
                        f"{knob} covers the whole run) — drop .{knob}(...) "
                        f"and pass {knob}= to run()/submit() instead"
                    )
        scenarios = [self._resolve_one(item) for item in items]
        if not scenarios:
            raise ValueError("a suite needs at least one scenario")
        return scenarios, True

    def _suite(
        self,
        scenarios: Sequence[Scenario],
        shard: Optional[tuple] = None,
    ) -> ScenarioSuite:
        return ScenarioSuite(
            scenarios,
            registry=self.registry,
            runner=self.runner,
            cache=self.cache,
            shard=shard,
        )

    def _effective_seed(
        self, seed: Optional[SeedLike], target: Optional[TargetLike] = None
    ) -> SeedLike:
        """Explicit seed > a single builder's pinned seed > session policy."""
        if seed is not None:
            return seed
        if isinstance(target, StudyBuilder) and target._seed is not None:
            return target._seed
        return self.default_seed

    @staticmethod
    def _options(
        target: TargetLike,
        batch_size: Optional[int],
        max_records_in_ram: Optional[int] = None,
        stream: bool = False,
        on_error: str = "raise",
    ) -> RunOptions:
        """The call's validated knobs: an explicit batch size wins over a
        single builder's pin; ``stream=True`` alone streams at
        :data:`~repro.results.DEFAULT_MAX_RECORDS_IN_RAM`."""
        if batch_size is None and isinstance(target, StudyBuilder):
            batch_size = target._batch_size
        if stream and max_records_in_ram is None:
            max_records_in_ram = DEFAULT_MAX_RECORDS_IN_RAM
        return RunOptions(batch_size, max_records_in_ram, on_error)

    # ---- telemetry plumbing ---------------------------------------------

    def _telemetry_for_run(self, source: str) -> Optional[Telemetry]:
        """The telemetry object one run records into, per session config.

        ``True``/profile modes get a fresh instance per run (so
        concurrent jobs never share mutable state); a caller-supplied
        instance is reused as-is and accumulates across runs.
        """
        mode = self._telemetry_mode
        if mode is False or mode is None:
            return None
        if isinstance(mode, Telemetry):
            mode.meta.setdefault("source", source)
            mode.meta.setdefault("backend", self.backend_name)
            return mode
        profile = mode if isinstance(mode, str) else None
        return Telemetry(
            profile=profile,
            meta={
                "source": source,
                "backend": self.backend_name,
                "n_workers": self.runner.n_workers,
            },
        )

    @staticmethod
    def _traced(
        telemetry: Optional[Telemetry],
        span: str,
        produce: Callable[[], Any],
    ) -> Any:
        """``produce()`` inside one root ``span`` of ``telemetry`` (when
        enabled), its snapshot attached as the result's ``telemetry``."""
        if telemetry is None:
            return produce()
        with telemetry.activate(), telemetry.span(span):
            result = produce()
        result.telemetry = telemetry.snapshot()
        return result

    # ---- suite runs: run / submit ---------------------------------------

    def _suite_body(
        self,
        target: TargetLike,
        seed: Optional[SeedLike],
        shard: Optional[tuple],
        batch_size: Optional[int],
        on_error: str,
        journal: Optional[Any],
    ) -> tuple[List[Scenario], Callable[..., RunResult]]:
        """Resolve one run/submit call into ``(scenarios, body)``.

        ``body(telemetry, on_result, cancel)`` is the whole execution,
        shared verbatim by the synchronous verb and the job.
        """
        self._ensure_open()
        options = self._options(target, batch_size, on_error=on_error)
        scenarios, is_suite = self._resolve_targets(target)
        if shard is not None and not is_suite:
            raise ValueError(
                "shard= requires a suite (a sequence of targets); a "
                "single scenario cannot be sharded"
            )
        suite = self._suite(scenarios, shard=shard)
        run_seed = self._effective_seed(seed, target)

        def body(
            telemetry: Optional[Telemetry],
            on_result: Optional[Callable[..., None]],
            cancel: Optional[Any],
        ) -> RunResult:
            result = self._traced(
                telemetry,
                "session.run",
                lambda: suite._run(
                    run_seed,
                    options,
                    on_result=on_result,
                    cancel=cancel,
                    journal=journal,
                ),
            )
            if telemetry is not None:
                for scenario_result in result.results:
                    scenario_result.telemetry = result.telemetry
            return result if is_suite else self._single_result(result)

        return scenarios, body

    def run(
        self,
        target: TargetLike,
        *,
        seed: Optional[SeedLike] = None,
        shard: Optional[tuple] = None,
        batch_size: Optional[int] = None,
        on_error: str = "raise",
        journal: Optional[Any] = None,
    ) -> RunResult:
        """Execute synchronously.

        Args:
            target: A scenario name, a :class:`Scenario`, a
                :class:`StudyBuilder`, or a sequence of those (a
                suite).
            seed: Root seed; defaults to the session's seed policy.
                Records are bit-identical across backends for the same
                seed.
            shard: Optional ``(index, count)`` suite sharding — seeds
                as if the whole suite ran; merge shard results with
                :meth:`~repro.scenarios.suite.SuiteResult.merge`.
            batch_size: Mega-batch lane count for campaign replications
                (see :meth:`ScenarioSuite.run
                <repro.scenarios.suite.ScenarioSuite.run>`); defaults
                to a single builder's pinned
                :meth:`~repro.api.builder.StudyBuilder.batch_size`.
                Recorded on ``provenance.execution``.
            on_error: ``"raise"`` (default) surfaces the first scenario
                failure; ``"skip"`` isolates per-scenario failures into
                ``SuiteResult.errors`` (full tracebacks included) so
                sibling scenarios still complete.  A *single* failed
                target under ``"skip"`` raises ``RuntimeError`` carrying
                the captured traceback, since there is no suite result
                to park the error on.
            journal: Optional run-journal path (or
                :class:`~repro.scenarios.RunJournal`): completed
                scenarios are checkpointed so a crashed/cancelled run
                re-invoked with the same journal (and a session cache)
                resumes where it died.

        Returns:
            A :class:`~repro.scenarios.ScenarioRunResult` for a single
            target, a :class:`~repro.scenarios.SuiteResult` for a
            sequence — both satisfy
            :class:`~repro.api.result.RunResult` and carry provenance.

        Raises:
            TypeError / ValueError: On an invalid knob or a builder that
                pins a seed or batch size inside a suite, before any
                scenario runs or any journal file is written.
        """
        _, body = self._suite_body(
            target, seed, shard, batch_size, on_error, journal
        )
        return body(self._telemetry_for_run("session.run"), None, None)

    @staticmethod
    def _single_result(suite_result: SuiteResult) -> ScenarioRunResult:
        """The lone result of a single-target run — or, when
        ``on_error="skip"`` swallowed it, the failure re-raised (a
        single target has no suite result to park the error on)."""
        if suite_result.results:
            return suite_result.results[0]
        failure = suite_result.errors[0]
        raise RuntimeError(
            f"{failure}\n\n--- captured traceback ---\n{failure.traceback}"
        )

    def submit(
        self,
        target: TargetLike,
        *,
        seed: Optional[SeedLike] = None,
        shard: Optional[tuple] = None,
        description: Optional[str] = None,
        batch_size: Optional[int] = None,
        on_error: str = "raise",
        journal: Optional[Any] = None,
    ) -> JobHandle:
        """Queue the same work :meth:`run` does; returns a
        :class:`~repro.api.jobs.JobHandle` immediately.

        Progress counts completed scenarios.  The handle's ``result()``
        is bit-identical to the synchronous :meth:`run` with the same
        seed (and ``batch_size``).  Jobs beyond ``max_parallel_jobs``
        wait in submission order.  ``on_error=`` / ``journal=`` behave
        exactly as on :meth:`run` — with a journal (plus the session
        cache), a cancelled or crashed job resubmitted with the same
        arguments resumes from its last completed scenario.  Invalid
        knobs raise here, as on :meth:`run`, before any job is queued.
        """
        scenarios, body = self._suite_body(
            target, seed, shard, batch_size, on_error, journal
        )
        total = len(scenarios)
        if shard is not None:
            index, count = shard
            total = len(range(index, len(scenarios), count))
        names = ", ".join(s.name for s in scenarios)
        return self._submit_job(
            description or f"run: {names}",
            total,
            self._as_job(body),
            telemetry=self._telemetry_for_run("session.submit"),
        )

    # ---- the paper pipeline ---------------------------------------------

    def full_study(
        self,
        target: StudyLike,
        *,
        seed: Optional[SeedLike] = None,
    ) -> StudyResult:
        """Run the complete three-step pipeline for one scenario —
        attack modeling (SAN + attack tree), DoE measurement, ANOVA
        assessment — returning the full
        :class:`~repro.core.study.StudyResult` (also a
        :class:`~repro.api.result.RunResult`)."""
        self._ensure_open()
        scenario = self._resolve_one(target)
        study = DiversityStudy.from_scenario(scenario, runner=self.runner)
        run_seed = self._effective_seed(seed, target)
        return self._traced(
            self._telemetry_for_run("session.full_study"),
            "session.full_study",
            lambda: study.execute(run_seed),
        )

    # ---- campaign batches: campaign / submit_campaign --------------------

    def _campaign_body(
        self,
        target: StudyLike,
        replications: int,
        seed: Optional[SeedLike],
        stream: bool,
        max_records_in_ram: Optional[int],
        batch_size: Optional[int],
    ) -> tuple[Scenario, Callable[..., CampaignRunResult]]:
        """Resolve one campaign/submit_campaign call into
        ``(scenario, body)``; ``body(telemetry, on_result, cancel)`` is
        shared verbatim by the synchronous verb and the job."""
        self._ensure_open()
        options = self._options(target, batch_size, max_records_in_ram, stream)
        scenario = self._resolve_one(target)
        root = as_seed_sequence(self._effective_seed(seed, target))
        campaign = self._campaign_for(scenario)

        def body(
            telemetry: Optional[Telemetry],
            on_result: Optional[Callable[[int], None]],
            cancel: Optional[Any],
        ) -> CampaignRunResult:
            def produce() -> CampaignRunResult:
                streaming = options.max_records_in_ram is not None
                aggregate = StreamingSummary() if streaming else None
                table = campaign.run_batch_table(
                    replications,
                    rng=root,
                    runner=self.runner,
                    on_result=on_result,
                    cancel=cancel,
                    max_records_in_ram=options.max_records_in_ram,
                    aggregators=() if aggregate is None else (aggregate,),
                    batch_size=options.batch_size,
                )
                return self._campaign_result(
                    scenario,
                    replications,
                    root,
                    table,
                    aggregate=aggregate,
                    execution=options.execution,
                )

            return self._traced(telemetry, "session.campaign", produce)

        return scenario, body

    def campaign(
        self,
        target: StudyLike,
        replications: int,
        *,
        seed: Optional[SeedLike] = None,
        stream: bool = False,
        max_records_in_ram: Optional[int] = None,
        batch_size: Optional[int] = None,
    ) -> CampaignRunResult:
        """Run a Monte-Carlo campaign batch against the scenario's
        baseline (undiversified) system.

        Args:
            target: Scenario name, :class:`Scenario` or builder.
            replications: Batch size.
            seed: Root seed; defaults to the session's seed policy.
            stream: Run out-of-core: response rows spill to disk shards
                once ``max_records_in_ram`` rows are buffered, and the
                scalar ``summary`` comes from a running
                :class:`~repro.results.StreamingSummary` (attached as
                the result's ``aggregate``) instead of a second pass
                over the table.  Records are identical to the default
                for the same seed; summaries agree to ~1e-9.
            max_records_in_ram: In-RAM row bound for streaming runs;
                implies ``stream=True``.  Defaults to
                :data:`repro.results.DEFAULT_MAX_RECORDS_IN_RAM`.
            batch_size: Mega-batch lane count (see
                :meth:`AttackCampaign.run_batch_table
                <repro.attacks.campaign.AttackCampaign
                .run_batch_table>`); defaults to a builder's pinned
                :meth:`~repro.api.builder.StudyBuilder.batch_size`.
                ``1`` is bit-identical to the scalar path; larger
                vectorized batches are distribution-identical.
                Composes with ``stream=``; recorded on
                ``provenance.execution`` outside the spec digest.

        Returns:
            A :class:`~repro.api.result.CampaignRunResult` with one
            response row per replication, bit-identical to
            ``AttackCampaign.run_batch_table`` on the same seed and
            runner.

        Raises:
            TypeError / ValueError: On an invalid ``batch_size`` or
                ``max_records_in_ram``, before any replication runs.
        """
        _, body = self._campaign_body(
            target, replications, seed, stream, max_records_in_ram,
            batch_size,
        )
        return body(self._telemetry_for_run("session.campaign"), None, None)

    def submit_campaign(
        self,
        target: StudyLike,
        replications: int,
        *,
        seed: Optional[SeedLike] = None,
        description: Optional[str] = None,
        stream: bool = False,
        max_records_in_ram: Optional[int] = None,
        batch_size: Optional[int] = None,
    ) -> JobHandle:
        """Queue a campaign batch; progress counts replications
        (one advance per mega-batch unit when ``batch_size`` is set).

        ``stream=`` / ``max_records_in_ram=`` / ``batch_size=`` behave
        exactly as on the synchronous :meth:`campaign`; invalid values
        raise here, before any job is queued.
        """
        scenario, body = self._campaign_body(
            target, replications, seed, stream, max_records_in_ram,
            batch_size,
        )
        return self._submit_job(
            description
            or f"campaign: {scenario.name} x{replications}",
            replications,
            self._as_job(body),
            telemetry=self._telemetry_for_run("session.submit_campaign"),
        )

    @staticmethod
    def _campaign_for(scenario: Scenario) -> AttackCampaign:
        return AttackCampaign(
            scenario.build_network(),
            scenario.build_catalog(),
            scenario.build_threat(),
            scenario.build_campaign_config(),
        )

    def _campaign_result(
        self,
        scenario: Scenario,
        replications: int,
        root: "Any",
        table: "Any",
        aggregate: Optional[StreamingSummary] = None,
        execution: Optional[dict] = None,
    ) -> CampaignRunResult:
        """Result/provenance assembly of a campaign run.  The
        ``execution`` knobs are recorded on the provenance but excluded
        from its digest, so streamed and in-RAM runs of the same spec
        digest identically."""
        summary = (
            aggregate.summary()
            if aggregate is not None
            else summarize_records(table)
        )
        return CampaignRunResult(
            table=table,
            summary=summary,
            scenario_name=scenario.name,
            replications=replications,
            provenance=provenance_for(
                {
                    "scenario": scenario.to_dict(),
                    "replications": replications,
                    "kind": "campaign",
                },
                root,
                self.runner,
                source="campaign",
                execution=execution,
            ),
            aggregate=aggregate,
        )

    # ---- jobs ------------------------------------------------------------

    @staticmethod
    def _as_job(body: Callable[..., Any]) -> Callable[[JobHandle], Any]:
        """Run a ``(telemetry, on_result, cancel)`` body on a job's
        telemetry, progress and cancel hooks."""
        return lambda job: body(
            job._telemetry, job._advance, job._cancel_event
        )

    def _submit_job(
        self,
        description: str,
        total_units: int,
        body: Callable[[JobHandle], Any],
        telemetry: Optional[Telemetry] = None,
    ) -> JobHandle:
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self._max_parallel_jobs,
                thread_name_prefix="repro-api-job",
            )
        handle = JobHandle(description, total_units)
        # Attach before binding so every transition after PENDING (which
        # _attach_telemetry replays) is forwarded as a telemetry event.
        handle._attach_telemetry(telemetry)
        handle._bind(self._executor.submit(handle._run, body))
        self._jobs = [ref for ref in self._jobs if ref() is not None]
        self._jobs.append(weakref.ref(handle))
        return handle

    @property
    def jobs(self) -> List[JobHandle]:
        """Jobs submitted through this session, in order — handles are
        held weakly, so jobs the caller has dropped (results and all)
        disappear from this listing once collected."""
        return [job for ref in self._jobs if (job := ref()) is not None]

    # ---- lifecycle -------------------------------------------------------

    def _ensure_open(self) -> None:
        if self._closed:
            raise RuntimeError("session is closed")

    def close(self, cancel_jobs: bool = False) -> None:
        """Shut the session's job executor down (idempotent).

        Args:
            cancel_jobs: Also cancel queued/running jobs instead of
                waiting for them.
        """
        if self._closed:
            return
        self._closed = True
        if cancel_jobs:
            for job in self.jobs:
                if not job.done():
                    job.cancel()
        if self._executor is not None:
            self._executor.shutdown(wait=not cancel_jobs)
            self._executor = None

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Session(backend={self.backend_name!r}, "
            f"n_workers={self.runner.n_workers}, "
            f"scenarios={len(self.registry)}, "
            f"cache={'on' if self.cache else 'off'}, "
            f"jobs={len(self.jobs)})"
        )
