"""Step 2 — DoE-driven measurement of security indicators.

For every run of a DoE design (each run = one system configuration,
i.e. one variant choice per diversified component kind), the plan
executes a Monte-Carlo batch of attack campaigns and records both the
per-replication responses (long format, for ANOVA) and the per-run
indicator summaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.attacks.campaign import AttackCampaign, AttackOutcome, CampaignConfig
from repro.attacks.profiles import ThreatProfile
from repro.core.indicators import IndicatorSet, compute_indicators
from repro.diversity.catalog import VariantCatalog
from repro.diversity.config import configuration_from_run
from repro.doe.design import Design, Run
from repro.exec.options import RunOptions
from repro.exec.runner import ExperimentRunner, validate_batch_args
from repro.exec.seeding import (
    SeedLike,
    as_seed_sequence,
    spawn_sequences,
    spawned_children,
)
from repro.results import (
    Provenance,
    RecordTable,
    TableRecordsMixin,
    provenance_for,
    summarize_records,
)
from repro.scada.network import SCADANetwork
from repro.telemetry.core import trace


def outcome_table(
    outcomes: List[AttackOutcome],
    horizon: float,
    constants: Optional[Mapping[str, object]] = None,
) -> RecordTable:
    """Columnar response records for a batch of campaign outcomes.

    Produces the library's long-format responses — ``success`` (0/1),
    horizon-restricted ``tta``/``ttsf`` and ``final_ratio`` — as NumPy
    columns, optionally prefixed with constant columns (factor levels,
    run index) repeated for every row.

    Args:
        outcomes: Campaign replications.
        horizon: Censoring horizon for ``tta``/``ttsf``.
        constants: ``{column: value}`` replicated across all rows, in
            order, ahead of the response columns.
    """
    n = len(outcomes)
    columns: Dict[str, object] = {}
    for name, value in (constants or {}).items():
        if isinstance(value, int) and not isinstance(value, bool):
            columns[name] = np.full(n, value, dtype=np.int64)
        elif isinstance(value, float):
            columns[name] = np.full(n, value, dtype=np.float64)
        else:
            column = np.empty(n, dtype=object)
            column[:] = [value] * n
            columns[name] = column
    rows = np.asarray(
        [o.response_row(horizon) for o in outcomes], dtype=np.float64
    ).reshape(n, 4)
    columns["success"] = rows[:, 0]
    columns["tta"] = rows[:, 1]
    columns["ttsf"] = rows[:, 2]
    columns["final_ratio"] = rows[:, 3]
    return RecordTable(columns)


@dataclass
class MeasurementResult(TableRecordsMixin):
    """Output of a measurement plan.

    Attributes:
        table: Columnar long-format per-replication records
            (:class:`repro.results.RecordTable`): the factor levels plus
            responses ``success`` (0/1), ``tta`` (restricted: horizon
            when censored), ``ttsf`` (restricted) and ``final_ratio``.
            Aggregation (summaries, ANOVA inputs) reads the column
            arrays directly; the dict-shaped ``records`` view is a
            lazily materialized *view* of this table — assign ``table``
            (or ``records``) to replace the data, do not mutate the
            view's dicts in place.
        run_indicators: Per-design-run indicator sets, parallel to
            ``design.runs``.
        design: The executed design.
        replications: Replications per run.
        provenance: Reproduction record (plan digest, seed material,
            backend, library version); set by spawn-seeded executions,
            ``None`` on the legacy shared-generator path (whose
            reproduction key is the caller's generator state).
    """

    table: RecordTable
    run_indicators: List[IndicatorSet]
    design: Design
    replications: int
    provenance: Optional[Provenance] = None

    @property
    def summary(self) -> Dict[str, float]:
        """Scalar comparison metrics over all records (``psa`` plus the
        restricted means of :data:`repro.results.SUMMARY_METRICS`)."""
        return summarize_records(self.table)

    @property
    def records(self) -> List[Dict[str, object]]:
        """The table as long-format dict records (computed lazily).

        Kept for dict-oriented consumers; columnar code should read
        :attr:`table`.  Assigning a record list replaces the table.
        """
        return TableRecordsMixin.records.fget(self)  # type: ignore[attr-defined]

    @records.setter
    def records(self, value: List[Dict[str, object]]) -> None:
        self.table = RecordTable.from_dicts(value)

    def response_names(self) -> List[str]:
        """The response keys present in the records."""
        return ["success", "tta", "ttsf", "final_ratio"]


class MeasurementPlan:
    """Executes a DoE design against a SCADA system.

    Args:
        network_factory: Builds a *fresh* network per run (configurations
            mutate hosts, so each run must start clean).
        catalog: Variant catalog.
        threat: Threat profile to simulate.
        design: The DoE design; factor names must be
            :class:`~repro.scada.components.ComponentKind` values and
            levels variant names.
        replications: Campaign replications per design run.
        campaign_config: Campaign parameters.
        batch_size: When set, each run's replications advance through
            the mega-batch lowering
            (:class:`repro.attacks.batched.CampaignBatchEngine`) in
            lanes of this size.  ``batch_size=1`` units receive exactly
            the per-replication spawned seeds of the scalar path, so
            single-lane batches are bit-identical; larger batches on
            the vectorized path are distribution-identical.  Recorded
            on ``provenance.execution`` (outside the spec digest — an
            execution knob, not part of the experiment's identity).
    """

    def __init__(
        self,
        network_factory: Callable[[], SCADANetwork],
        catalog: VariantCatalog,
        threat: ThreatProfile,
        design: Design,
        replications: int = 30,
        campaign_config: Optional[CampaignConfig] = None,
        batch_size: Optional[int] = None,
    ) -> None:
        validate_batch_args(replications)
        self.network_factory = network_factory
        self.catalog = catalog
        self.threat = threat
        self.design = design
        self.replications = replications
        self.campaign_config = campaign_config or CampaignConfig()
        self.batch_size = RunOptions(batch_size=batch_size).batch_size

    def campaign_for_run(self, run_index: int) -> AttackCampaign:
        """Build the configured campaign for one design run."""
        run = self.design.runs[run_index]
        network = self.network_factory()
        config = configuration_from_run(
            network, run.as_dict(), label=f"run_{run_index}"
        )
        config.apply(network)
        return AttackCampaign(
            network, self.catalog, self.threat, self.campaign_config
        )

    def _table_for_run(
        self, run: Run, run_index: int, outcomes: List[AttackOutcome]
    ) -> RecordTable:
        """Columnar response records for one run's outcome batch."""
        constants: Dict[str, object] = dict(run.as_dict())
        constants["run"] = run_index
        return outcome_table(
            outcomes, self.campaign_config.horizon, constants
        )

    def execute_run(
        self, run_index: int, seq: np.random.SeedSequence
    ) -> Tuple[RecordTable, IndicatorSet]:
        """Execute one design run with spawn-per-replication seeding.

        This is the parallel work unit: every replication draws from its
        own generator (the ``i``-th child of ``seq``), so the run's
        records depend only on ``(seq, run_index)`` — not on which
        worker, backend or chunk executed it, nor on how often it ran:
        the children are derived without advancing ``seq``, so a
        retried unit re-runs with its original seeds.  The run's records
        come back as one compact :class:`~repro.results.RecordTable`
        (column buffers, not a pickled dict list) plus its indicator set.
        """
        with trace("measurement.run"):
            campaign = self.campaign_for_run(run_index)
            if self.batch_size is not None:
                outcomes = self._batched_outcomes(campaign, seq)
            else:
                outcomes = [
                    campaign.run(np.random.default_rng(child))
                    for child in spawned_children(seq, self.replications)
                ]
            table = self._table_for_run(
                self.design.runs[run_index], run_index, outcomes
            )
            return table, compute_indicators(outcomes)

    def _batched_outcomes(
        self, campaign: AttackCampaign, seq: np.random.SeedSequence
    ) -> List[AttackOutcome]:
        """One run's replications through the mega-batch lowering.

        Unit seeds are children of ``seq`` exactly like the scalar
        path's per-replication seeds, so ``batch_size=1`` reproduces the
        scalar records bit-for-bit.
        """
        from repro.attacks.batched import CampaignBatchEngine
        from repro.exec import batch_unit_sizes

        engine = CampaignBatchEngine(campaign)
        sizes = batch_unit_sizes(self.replications, self.batch_size)
        outcomes: List[AttackOutcome] = []
        for child, size in zip(spawned_children(seq, len(sizes)), sizes):
            outcomes.extend(
                engine.run_outcomes(size, np.random.default_rng(child))
            )
        return outcomes

    def spec_payload(self) -> Dict[str, object]:
        """Best-effort canonical description of this plan (provenance).

        Factories and catalogs are live objects, so the payload names
        what is serializable — the design's runs, the replication count
        and the campaign knobs — which pins the executed experiment
        design even when the builders themselves are code.
        """
        return {
            "design": {
                "name": self.design.name,
                "runs": [dict(run.as_dict()) for run in self.design.runs],
            },
            "replications": self.replications,
            "campaign": {
                "horizon": self.campaign_config.horizon,
                "tick_interval": self.campaign_config.tick_interval,
                "response_enabled": self.campaign_config.response_enabled,
                "response_delay_rate": self.campaign_config.response_delay_rate,
                "tick_elision": self.campaign_config.tick_elision,
            },
        }

    def execute(
        self,
        rng: SeedLike = None,
        runner: Optional[ExperimentRunner] = None,
        on_result: Optional[Callable[[int], None]] = None,
        cancel: Optional[Any] = None,
        max_records_in_ram: Optional[int] = None,
    ) -> MeasurementResult:
        """Run every design run and collect responses.

        Execution modes mirror
        :meth:`repro.attacks.campaign.AttackCampaign.run_batch`:

        * **Shared-generator (legacy)** — ``rng`` is a
          :class:`numpy.random.Generator` and ``runner`` is ``None``:
          runs and replications execute serially against the one
          generator (historical bit-exact streams).
        * **Runner** — a ``runner`` is given (or ``rng`` is a plain
          seed): each design run becomes one work unit with its own
          spawned :class:`~numpy.random.SeedSequence`, and records are
          bit-identical across backends, worker counts and chunkings.

        Either producer hands each finished run's ``(table,
        indicators)`` to one sink, in design-run order; the runner
        never collects per-unit results.

        Args:
            rng: Seed or generator (see above).
            runner: Optional :class:`~repro.exec.runner.ExperimentRunner`.
            on_result: Optional progress hook ``on_result(run_index)``
                called per completed design run (both modes).  Never
                affects records.
            cancel: Optional cancellation event (``is_set()``
                protocol); once set the execution raises
                :class:`~repro.exec.backends.ExecutionCancelled`.
            max_records_in_ram: When set, the sink streams per-run
                tables into a spilling :class:`~repro.results.streaming
                .StreamingTableBuilder` as each run completes, and the
                result's table is a lazy ``ShardedRecordTable`` holding
                at most this many rows in RAM.  Records are identical to
                the default in-RAM mode for the same seed; the bound is
                recorded on ``provenance.execution``.  A bound that is not
                an integer ``>= 1`` raises before any design run.
        """
        from repro.exec.backends import ExecutionCancelled

        options = RunOptions(self.batch_size, max_records_in_ram)
        builder = None
        if options.max_records_in_ram is not None:
            from repro.results.streaming import StreamingTableBuilder

            builder = StreamingTableBuilder(
                max_records_in_ram=options.max_records_in_ram
            )
        tables: List[RecordTable] = []
        run_indicators: List[IndicatorSet] = []

        def take(index: int, result: Tuple[RecordTable, IndicatorSet]) -> None:
            run_table, indicators = result
            if builder is not None:
                builder.append_table(run_table)
            else:
                tables.append(run_table)
            run_indicators.append(indicators)
            if on_result is not None:
                on_result(index)

        n_runs = len(self.design.runs)
        provenance: Optional[Provenance] = None
        if runner is None and isinstance(rng, np.random.Generator):
            for run_index in range(n_runs):
                if cancel is not None and cancel.is_set():
                    raise ExecutionCancelled(
                        f"measurement cancelled after {run_index} of "
                        f"{n_runs} design runs"
                    )
                take(run_index, self._legacy_run(run_index, rng))
        else:
            active = runner or ExperimentRunner()
            root = as_seed_sequence(rng)
            if not n_runs and cancel is not None and cancel.is_set():
                raise ExecutionCancelled("measurement cancelled")
            active.map(
                self.execute_run,
                list(enumerate(spawn_sequences(root, n_runs))),
                on_result=take,
                cancel=cancel,
                collect=False,
            )
            provenance = provenance_for(
                self.spec_payload(),
                root,
                active,
                source="measurement_plan",
                execution=options.execution,
            )
        return MeasurementResult(
            table=(
                builder.build()
                if builder is not None
                else RecordTable.concat(tables)
            ),
            run_indicators=run_indicators,
            design=self.design,
            replications=self.replications,
            provenance=provenance,
        )

    def _legacy_run(
        self, run_index: int, rng: np.random.Generator
    ) -> Tuple[RecordTable, IndicatorSet]:
        """One design run drawing from the caller's shared generator."""
        campaign = self.campaign_for_run(run_index)
        if self.batch_size is not None:
            from repro.attacks.batched import CampaignBatchEngine
            from repro.exec import batch_unit_sizes

            engine = CampaignBatchEngine(campaign)
            outcomes = []
            for size in batch_unit_sizes(self.replications, self.batch_size):
                outcomes.extend(engine.run_outcomes(size, rng))
        else:
            outcomes = campaign.run_batch(self.replications, rng)
        table = self._table_for_run(
            self.design.runs[run_index], run_index, outcomes
        )
        return table, compute_indicators(outcomes)
