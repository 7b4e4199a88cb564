"""Session facade: resources, builders, catalogs, results, caching."""

import dataclasses
import json

import pytest

from repro.api import (
    CampaignRunResult,
    Provenance,
    RunResult,
    Session,
    StudyBuilder,
)
from repro.scenarios import SCENARIOS, Scenario
from repro.scenarios.suite import ScenarioRunResult, SuiteResult


class TestConstruction:
    def test_defaults(self):
        session = Session()
        assert session.backend_name == "serial"
        assert session.default_seed == 0
        assert session.cache is None
        assert session.registry.names() == SCENARIOS.names()

    def test_default_registry_is_isolated_from_global(self):
        session = Session()
        assert session.registry is not SCENARIOS
        session.registry.add(
            dataclasses.replace(SCENARIOS.get("smoke"), name="local_only")
        )
        assert "local_only" in session.registry
        assert "local_only" not in SCENARIOS

    def test_explicit_registry_used_as_is(self):
        registry = SCENARIOS.copy()
        session = Session(registry=registry)
        assert session.registry is registry

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            Session(backend="quantum")

    def test_bad_max_parallel_jobs_rejected(self):
        with pytest.raises(ValueError, match="max_parallel_jobs"):
            Session(max_parallel_jobs=0)

    def test_context_manager_closes(self):
        with Session() as session:
            session.run("smoke", seed=1)
        with pytest.raises(RuntimeError, match="closed"):
            session.run("smoke", seed=1)

    def test_catalog_dirs_layer_onto_a_copy(self, tmp_path):
        spec = dataclasses.replace(
            SCENARIOS.get("smoke"), name="from_file", tags=("filecat",)
        )
        (tmp_path / "from_file.json").write_text(spec.to_json())
        session = Session(catalog_dirs=[str(tmp_path)])
        assert "from_file" in session.registry
        # The library-wide catalog is never mutated.
        assert "from_file" not in SCENARIOS
        assert session.scenario("from_file").tags == ("filecat",)


class TestAccessors:
    def test_scenario_resolves_names_and_passes_specs(self):
        session = Session()
        smoke = session.scenario("smoke")
        assert smoke.name == "smoke"
        assert session.scenario(smoke) is smoke
        with pytest.raises(ValueError, match="unknown scenario"):
            session.scenario("nope")

    def test_scenarios_by_tag(self):
        session = Session()
        names = [s.name for s in session.scenarios(tag="threat-sweep")]
        assert "cooling_duqu" in names
        assert len(session.scenarios()) == len(SCENARIOS)


class TestStudyBuilder:
    def test_build_without_overrides_returns_base(self):
        session = Session()
        assert session.study("smoke").build() is session.scenario("smoke")

    def test_override_and_shorthands(self):
        session = Session()
        scenario = (
            session.study("smoke")
            .override(threat_params={"entry_rate": 0.9})
            .replications(5)
            .horizon(10.0)
            .named("smoke_hot")
            .build()
        )
        assert scenario.threat_params == {"entry_rate": 0.9}
        assert scenario.replications == 5
        assert scenario.horizon == 10.0
        assert scenario.name == "smoke_hot"

    def test_builders_are_immutable(self):
        session = Session()
        base = session.study("smoke")
        hot = base.replications(99)
        assert base.build().replications != 99
        assert hot.build().replications == 99

    def test_unknown_field_fails_at_build(self):
        builder = Session().study("smoke").override(warp_factor=9)
        with pytest.raises(ValueError, match="warp_factor"):
            builder.build()

    def test_invalid_value_fails_with_spec_validation(self):
        builder = Session().study("smoke").replications(0)
        with pytest.raises(ValueError, match="replications"):
            builder.build()

    def test_study_of_builder_passes_through(self):
        session = Session()
        builder = session.study("smoke")
        assert session.study(builder) is builder

    def test_pinned_builder_seed_respected_by_session_run(self):
        session = Session(seed=0)
        pinned = session.study("smoke").seed(7)
        via_session = session.run(pinned)
        explicit = session.run("smoke", seed=7)
        assert via_session.records == explicit.records
        # An explicit seed still wins over the pin.
        assert (
            session.run(pinned, seed=8).records
            == session.run("smoke", seed=8).records
        )

    def test_pinned_seed_inside_suite_rejected(self):
        session = Session()
        pinned = session.study("smoke").seed(7)
        with pytest.raises(ValueError, match="pins its own seed"):
            session.run([pinned, "cooling_stuxnet"])

    def test_pinned_batch_size_inside_suite_rejected(self, tmp_path):
        # One batch_size= covers a suite run; a builder's pin used to be
        # dropped silently, leaving scalar records and no execution.
        session = Session()
        pinned = session.study("smoke").batch_size(4)
        advice = r"pins its own batch_size.*pass batch_size= to run\(\)"
        journal = tmp_path / "run.journal"
        with pytest.raises(ValueError, match=advice):
            session.run([pinned, "cooling_stuxnet"], seed=3, journal=journal)
        with pytest.raises(ValueError, match=advice):
            session.submit([pinned], seed=3)
        assert not journal.exists()
        # Alone, the builder's pin still applies.
        assert session.run(pinned, seed=3).provenance.execution == {
            "batch_size": 4
        }


class TestRun:
    def test_single_target_returns_scenario_result(self):
        result = Session().run("smoke", seed=7)
        assert isinstance(result, ScenarioRunResult)
        assert isinstance(result, RunResult)
        assert len(result.table) > 0
        assert "psa" in result.summary

    def test_list_target_returns_suite_result(self):
        result = Session().run(["smoke"], seed=7)
        assert isinstance(result, SuiteResult)
        assert isinstance(result, RunResult)
        assert result.names() == ["smoke"]
        assert set(result.table.columns) == {
            "scenario", "success", "tta", "ttsf", "final_ratio"
        }

    def test_empty_suite_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            Session().run([], seed=7)

    def test_default_seed_policy(self):
        session = Session(seed=123)
        by_policy = session.run("smoke")
        explicit = session.run("smoke", seed=123)
        assert by_policy.records == explicit.records

    def test_none_default_seed_draws_fresh_entropy(self):
        session = Session(seed=None)
        first = session.run("smoke")
        # Entropy is recorded, so even unseeded runs reproduce.
        replay = session.run(
            "smoke", seed=int(first.provenance.entropy)
        )
        assert replay.records == first.records

    def test_provenance_populated(self):
        session = Session()
        result = session.run("smoke", seed=9)
        prov = result.provenance
        assert isinstance(prov, Provenance)
        assert prov.backend == "serial"
        assert prov.source == "scenario_suite"
        assert len(prov.spec_digest) == 64
        assert prov.spawn_key == (0,)
        assert json.loads(json.dumps(prov.to_dict())) == prov.to_dict()

    def test_run_with_cache_warm_equals_cold(self, tmp_path):
        cold = Session(cache_dir=str(tmp_path)).run("smoke", seed=5)
        warm = Session(cache_dir=str(tmp_path)).run("smoke", seed=5)
        assert warm.records == cold.records
        assert warm.provenance.spec_digest == cold.provenance.spec_digest

    def test_shard_merge_equals_full_run(self):
        session = Session()
        names = ["smoke", "cooling_stuxnet"]
        full = session.run(names, seed=3)
        shards = [
            session.run(names, seed=3, shard=(i, 2)) for i in range(2)
        ]
        merged = SuiteResult.merge(shards)
        assert merged.records_by_scenario() == full.records_by_scenario()

    def test_shard_on_single_target_rejected(self):
        session = Session()
        with pytest.raises(ValueError, match="shard"):
            session.run("smoke", seed=3, shard=(1, 2))
        with pytest.raises(ValueError, match="shard"):
            session.submit("smoke", seed=3, shard=(0, 2))

    def test_on_result_hook_sees_provenance(self, tmp_path):
        from repro.scenarios.suite import ScenarioSuite

        seen = []
        suite = ScenarioSuite(["smoke"], cache_dir=str(tmp_path))
        suite.run(seed=4, on_result=lambda r: seen.append(r.provenance))
        suite.run(seed=4, on_result=lambda r: seen.append(r.provenance))
        assert len(seen) == 2  # one executed, one cache hit
        assert all(p is not None for p in seen)
        assert seen[0].spec_digest == seen[1].spec_digest


class TestCampaign:
    def test_campaign_result_shape(self):
        result = Session().campaign("smoke", 6, seed=2)
        assert isinstance(result, CampaignRunResult)
        assert isinstance(result, RunResult)
        assert len(result.table) == 6
        assert result.scenario_name == "smoke"
        assert result.provenance.source == "campaign"

    def test_campaign_accepts_builder(self):
        session = Session()
        builder = session.study("smoke").horizon(10.0)
        result = session.campaign(builder, 4, seed=2)
        assert len(result.table) == 4


class TestResultProtocol:
    def test_all_result_types_satisfy_runresult(self):
        session = Session()
        single = session.run("smoke", seed=1)
        suite = session.run(["smoke"], seed=1)
        campaign = session.campaign("smoke", 3, seed=1)
        study = session.full_study("smoke", seed=1)
        for result in (single, suite, campaign, study):
            assert isinstance(result, RunResult)
            assert len(result.table) >= 1
            assert "psa" in result.summary
            assert result.provenance is not None

    def test_measurement_result_satisfies_runresult(self):
        measurement = Session().full_study("smoke", seed=1).measurement
        assert isinstance(measurement, RunResult)
        assert measurement.provenance.source == "measurement_plan"


class TestSelftest:
    def test_selftest_passes_in_process(self, capsys):
        from repro.api.__main__ import main

        assert main(["--selftest"]) == 0
        out = capsys.readouterr().out
        assert "selftest ok" in out

    def test_no_arguments_prints_help(self, capsys):
        from repro.api.__main__ import main

        assert main([]) == 2
