"""Facade ⇔ legacy equivalence: bit-identical records AND seeds.

The :mod:`repro.api` facade lowers onto the legacy entry points, so for
the same root seed every run must reproduce the legacy results exactly
— records and the spawned seed material both.  Fast tier-1 coverage
pins the smoke scenario across all three backends plus the non-suite
entry points; the full built-in catalog across every backend carries
the ``scenario`` marker (run with ``-m scenario``), mirroring the
pre-existing suite determinism tests.
"""

import numpy as np
import pytest

from repro.api import Session
from repro.attacks.campaign import AttackCampaign
from repro.core.study import DiversityStudy
from repro.exec.runner import ExperimentRunner
from repro.exec.seeding import spawn_sequences
from repro.scenarios import SCENARIOS, ScenarioSuite

BACKENDS = ["serial", "thread", "process"]


def legacy_suite(names, backend, seed):
    """The pre-facade calling convention: a suite on an explicit runner."""
    return ScenarioSuite(
        names, runner=ExperimentRunner(backend, 2)
    ).run(seed=seed)


class TestSuiteEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_smoke_records_and_seeds_identical(self, backend):
        names = ["smoke"]
        legacy = legacy_suite(names, backend, seed=42)
        session = Session(backend=backend, n_workers=2)
        facade = session.run(names, seed=42)
        assert (
            facade.records_by_scenario() == legacy.records_by_scenario()
        )
        # Seeds: the facade spawns the identical child sequences.
        expected = spawn_sequences(42, len(names))
        for result, seq in zip(facade.results, expected):
            assert result.provenance.entropy == str(seq.entropy)
            assert result.provenance.spawn_key == tuple(seq.spawn_key)

    def test_submit_equals_legacy_run(self):
        legacy = legacy_suite(["smoke", "cooling_stuxnet"], "serial", 7)
        with Session() as session:
            job = session.submit(["smoke", "cooling_stuxnet"], seed=7)
            assert (
                job.result().records_by_scenario()
                == legacy.records_by_scenario()
            )

    def test_builder_override_equals_legacy_replaced_spec(self):
        import dataclasses

        replaced = dataclasses.replace(
            SCENARIOS.get("smoke"), replications=4, horizon=15.0
        )
        legacy = ScenarioSuite([replaced]).run(seed=5)
        facade = (
            Session()
            .study("smoke")
            .replications(4)
            .horizon(15.0)
            .run(seed=5)
        )
        assert facade.records == legacy.results[0].records


class TestStudyEquivalence:
    def test_full_study_equals_legacy_from_scenario(self):
        scenario = SCENARIOS.get("smoke")
        legacy = DiversityStudy.from_scenario(
            scenario, runner=ExperimentRunner("serial")
        ).execute(21)
        facade = Session().full_study("smoke", seed=21)
        assert facade.measurement.records == legacy.measurement.records
        assert facade.design.n_runs == legacy.design.n_runs


class TestCampaignEquivalence:
    def test_campaign_equals_legacy_run_batch_table(self):
        scenario = SCENARIOS.get("smoke")
        campaign = AttackCampaign(
            scenario.build_network(),
            scenario.build_catalog(),
            scenario.build_threat(),
            scenario.build_campaign_config(),
        )
        legacy = campaign.run_batch_table(
            8, rng=13, runner=ExperimentRunner()
        )
        facade = Session().campaign("smoke", 8, seed=13)
        assert facade.table == legacy

    @pytest.mark.parametrize("batch_size", [None, 4])
    @pytest.mark.parametrize("stream", [False, True])
    def test_submit_campaign_equals_sync(self, stream, batch_size):
        knobs = dict(seed=13, stream=stream, batch_size=batch_size)
        if stream:
            knobs["max_records_in_ram"] = 3
        with Session(backend="thread", n_workers=2) as session:
            sync = session.campaign("smoke", 8, **knobs)
            job = session.submit_campaign("smoke", 8, **knobs).result()
        assert job.table == sync.table
        assert job.summary == sync.summary
        assert job.provenance == sync.provenance
        expected = {"batch_size": batch_size} if batch_size else {}
        if stream:
            expected = {"stream": True, "max_records_in_ram": 3, **expected}
        assert sync.provenance.execution == (expected or None)


class TestTelemetryEquivalence:
    """Sync verbs and their jobs share one traced body."""

    def test_sync_and_job_snapshots_share_the_root_span(self):
        with Session(telemetry=True) as session:
            pairs = {
                "session.run": (
                    session.run("smoke", seed=4),
                    session.submit("smoke", seed=4).result(),
                ),
                "session.campaign": (
                    session.campaign("smoke", 6, seed=4),
                    session.submit_campaign("smoke", 6, seed=4).result(),
                ),
            }
        for root, (sync, job) in pairs.items():
            assert sync.table == job.table
            for result in (sync, job):
                assert list(result.telemetry.spans["children"]) == [root]
            # meta["source"] still names the verb that was called.
            assert sync.telemetry.meta["source"] == root
        assert pairs["session.run"][1].telemetry.meta["source"] == (
            "session.submit"
        )
        assert pairs["session.campaign"][1].telemetry.meta["source"] == (
            "session.submit_campaign"
        )


@pytest.mark.scenario
class TestAllBuiltinsAllBackends:
    """The acceptance sweep: every built-in, every backend."""

    @pytest.fixture(scope="class")
    def legacy_serial(self):
        return legacy_suite(SCENARIOS.names(), "serial", seed=2013)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_catalog_bit_identical(self, backend, legacy_serial):
        names = SCENARIOS.names()
        facade = Session(backend=backend, n_workers=4).run(
            names, seed=2013
        )
        assert (
            facade.records_by_scenario()
            == legacy_serial.records_by_scenario()
        )
        expected = spawn_sequences(2013, len(names))
        for result, seq in zip(facade.results, expected):
            assert result.provenance.entropy == str(seq.entropy)
            assert result.provenance.spawn_key == tuple(seq.spawn_key)
