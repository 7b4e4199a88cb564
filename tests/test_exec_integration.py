"""End-to-end determinism of the runner-backed batch entry points.

Same seed ⇒ identical records across the ``serial``, ``thread`` and
``process`` backends and across worker counts, for every refactored
entry point: ``AttackCampaign.run_batch``, ``MeasurementPlan.execute``,
``SANSimulator.batch`` and ``DiversityStudy``.
"""

import math

import numpy as np
import pytest

from repro import (
    AttackCampaign,
    CampaignConfig,
    DiversityStudy,
    ExperimentRunner,
    MeasurementPlan,
    default_catalog,
    scope_cooling_topology,
    stuxnet_like,
)
from repro.doe.design import Factor
from repro.exec import RetryPolicy, TransientWorkerError
from repro.doe.factorial import full_factorial
from repro.san.builder import SANBuilder
from repro.san.simulator import SANSimulator
from repro.scenarios import get_scenario
from repro.scada.components import ComponentKind

FAST_CONFIG = CampaignConfig(horizon=20.0, tick_interval=0.5)


def _small_design():
    return full_factorial(
        [
            Factor("operating_system", ("win_legacy", "linux_hardened")),
            Factor("antivirus", ("av_signature", "av_behavioral")),
        ]
    )


def _small_plan(replications=3):
    return MeasurementPlan(
        scope_cooling_topology,
        default_catalog(),
        stuxnet_like(),
        _small_design(),
        replications=replications,
        campaign_config=FAST_CONFIG,
    )


def _nan_safe(value):
    # nan != nan would make identical outcomes compare unequal.
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    return value


def _outcome_fingerprint(outcome):
    return (
        outcome.success,
        _nan_safe(outcome.success_time),
        _nan_safe(outcome.detection_time),
        _nan_safe(outcome.sabotage_start),
        tuple(sorted(outcome.compromise_times.items())),
        tuple(sorted(outcome.root_times.items())),
    )


def _chain_model():
    builder = SANBuilder()
    builder.place("s0", 1).place("s1", 0).place("s2", 0)
    builder.stage("a01", "s0", "s1", rate=2.0)
    builder.stage("a12", "s1", "s2", rate=1.0)
    return builder.build()


def _reached_s2(marking):
    # Module-level so the process backend can pickle the stop predicate.
    return marking["s2"] > 0


class TestCampaignBatchDeterminism:
    @pytest.fixture(scope="class")
    def reference(self):
        campaign = AttackCampaign(
            scope_cooling_topology(),
            default_catalog(),
            stuxnet_like(),
            FAST_CONFIG,
        )
        serial = campaign.run_batch(
            6, 2024, runner=ExperimentRunner("serial")
        )
        return campaign, [_outcome_fingerprint(o) for o in serial]

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_backends_match_serial(self, reference, backend):
        campaign, expected = reference
        outcomes = campaign.run_batch(
            6, 2024, runner=ExperimentRunner(backend, n_workers=4)
        )
        assert [_outcome_fingerprint(o) for o in outcomes] == expected

    @pytest.mark.parametrize("n_workers", [1, 3])
    def test_worker_counts_match_serial(self, reference, n_workers):
        campaign, expected = reference
        outcomes = campaign.run_batch(
            6,
            2024,
            runner=ExperimentRunner(
                "thread", n_workers=n_workers, chunk_size=1
            ),
        )
        assert [_outcome_fingerprint(o) for o in outcomes] == expected

    def test_seed_only_call_defaults_to_serial_runner(self, reference):
        campaign, expected = reference
        outcomes = campaign.run_batch(6, 2024)
        assert [_outcome_fingerprint(o) for o in outcomes] == expected

    def test_legacy_shared_generator_path_still_sequential(self):
        campaign = AttackCampaign(
            scope_cooling_topology(),
            default_catalog(),
            stuxnet_like(),
            FAST_CONFIG,
        )
        a = campaign.run_batch(4, np.random.default_rng(7))
        b = campaign.run_batch(4, np.random.default_rng(7))
        assert [_outcome_fingerprint(o) for o in a] == [
            _outcome_fingerprint(o) for o in b
        ]


class TestMeasurementPlanDeterminism:
    @pytest.fixture(scope="class")
    def serial_result(self):
        return _small_plan().execute(
            rng=99, runner=ExperimentRunner("serial")
        )

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_records_bit_identical_across_backends(
        self, serial_result, backend
    ):
        result = _small_plan().execute(
            rng=99, runner=ExperimentRunner(backend, n_workers=4)
        )
        assert result.records == serial_result.records

    def test_run_indicators_match_too(self, serial_result):
        result = _small_plan().execute(
            rng=99,
            runner=ExperimentRunner("thread", n_workers=2, chunk_size=1),
        )
        for mine, ref in zip(
            result.run_indicators, serial_result.run_indicators
        ):
            a, b = mine.summary_row(), ref.summary_row()
            assert a.keys() == b.keys()
            for key in a:
                x, y = a[key], b[key]
                if isinstance(x, float) and math.isnan(x):
                    assert math.isnan(y)
                else:
                    assert x == y

    def test_legacy_generator_path_unchanged_shape(self):
        result = _small_plan().execute(np.random.default_rng(1))
        assert len(result.records) == 4 * 3
        assert result.replications == 3


def _smoke_plan(plan_class=MeasurementPlan, batch_size=None):
    study = DiversityStudy.from_scenario(get_scenario("smoke"))
    return plan_class(
        study.network_factory,
        study.catalog,
        study.threat,
        study.build_design(study.build_factors()),
        replications=study.replications,
        campaign_config=study.campaign_config,
        batch_size=batch_size,
    )


def _rows(table):
    return [
        {key: _nan_safe(value) for key, value in row.items()}
        for row in table.to_dicts()
    ]


class _FailsOnceAfterSeeding(MeasurementPlan):
    """Each design run raises a transient error once, after its
    replications were seeded and run."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.failed_runs = set()

    def _table_for_run(self, run, run_index, outcomes):
        if run_index not in self.failed_runs:
            self.failed_runs.add(run_index)
            raise TransientWorkerError("transient failure after seeding")
        return super()._table_for_run(run, run_index, outcomes)


class TestMeasurementUnitRerun:
    """A re-run unit draws its original seeds (retries, degradation)."""

    @pytest.mark.parametrize("batch_size", [None, 1])
    def test_same_sequence_object_twice_gives_equal_tables(self, batch_size):
        plan = _smoke_plan(batch_size=batch_size)
        seq = np.random.SeedSequence(5, spawn_key=(0,))
        first, _ = plan.execute_run(0, seq)
        second, _ = plan.execute_run(0, seq)
        assert _rows(second) == _rows(first)

    def test_first_attempt_matches_spawned_children(self):
        plan = _smoke_plan()
        campaign = plan.campaign_for_run(0)
        outcomes = [
            campaign.run(np.random.default_rng(child))
            for child in np.random.SeedSequence(5, spawn_key=(0,)).spawn(
                plan.replications
            )
        ]
        expected = plan._table_for_run(plan.design.runs[0], 0, outcomes)
        table, _ = plan.execute_run(
            0, np.random.SeedSequence(5, spawn_key=(0,))
        )
        assert _rows(table) == _rows(expected)

    def test_serial_retry_after_seeding_reproduces_records(self):
        clean = _smoke_plan().execute(rng=5, runner=ExperimentRunner("serial"))
        flaky = _smoke_plan(_FailsOnceAfterSeeding)
        retried = flaky.execute(
            rng=5,
            runner=ExperimentRunner(
                "serial",
                retry=RetryPolicy(
                    max_attempts=2, base_delay_s=0.0, jitter=0.0
                ),
            ),
        )
        assert flaky.failed_runs == set(range(len(flaky.design.runs)))
        assert _rows(retried.table) == _rows(clean.table)


class TestSANBatchDeterminism:
    def _fingerprints(self, runs):
        return [
            (r.end_time, r.stop_time, tuple(r.completions)) for r in runs
        ]

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_backends_match_serial(self, backend):
        sim = SANSimulator(_chain_model())
        serial = sim.batch(
            50.0, 8, 11, stop=_reached_s2, runner=ExperimentRunner("serial")
        )
        parallel = sim.batch(
            50.0,
            8,
            11,
            stop=_reached_s2,
            runner=ExperimentRunner(backend, n_workers=4),
        )
        assert self._fingerprints(parallel) == self._fingerprints(serial)

    def test_legacy_generator_path_still_works(self):
        sim = SANSimulator(_chain_model())
        runs = sim.batch(50.0, 5, np.random.default_rng(3))
        assert len(runs) == 5


class TestDiversityStudyBackendOption:
    def test_thread_backend_matches_serial_backend(self):
        def build(backend, n_workers=None):
            return DiversityStudy(
                network_factory=scope_cooling_topology,
                catalog=default_catalog(),
                threat=stuxnet_like(),
                kinds=[
                    ComponentKind.OPERATING_SYSTEM,
                    ComponentKind.ANTIVIRUS,
                ],
                two_level=True,
                replications=3,
                campaign_config=FAST_CONFIG,
                runner=ExperimentRunner(backend, n_workers),
            )

        serial = build("serial").execute(np.random.default_rng(42))
        threaded = build("thread", 4).execute(np.random.default_rng(42))
        assert serial.measurement.records == threaded.measurement.records
