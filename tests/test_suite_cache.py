"""Suite-level caching and sharding: determinism and invalidation.

The contract under test: a suite run's per-scenario records are a pure
function of ``(root seed, scenario position, spec)`` — never of backend,
worker count, shard split, or cache state (cold, warm, or shared).
"""

import os

import pytest

from repro.exec.runner import ExperimentRunner
from repro.scenarios.registry import SCENARIOS
from repro.scenarios.spec import Scenario
from repro.scenarios.suite import ScenarioSuite, SuiteResult

NAMES = ["smoke", "cooling_duqu"]
SEED = 2013


@pytest.fixture(scope="module", name="reference")
def reference_fixture():
    """The cache-less serial run every variant must reproduce."""
    return ScenarioSuite(NAMES).run(seed=SEED)


class TestCacheDeterminism:
    def test_cold_then_warm_identical(self, tmp_path, reference):
        cache_dir = str(tmp_path)
        cold = ScenarioSuite(NAMES, cache_dir=cache_dir).run(seed=SEED)
        assert cold.records_by_scenario() == reference.records_by_scenario()
        # Every scenario now has a (table, meta) entry pair on disk.
        assert len(os.listdir(cache_dir)) == 2 * len(NAMES)
        warm = ScenarioSuite(NAMES, cache_dir=cache_dir).run(seed=SEED)
        assert warm.records_by_scenario() == reference.records_by_scenario()
        for name in NAMES:
            a, b = cold.by_name(name), warm.by_name(name)
            assert a.table == b.table
            assert a.summary == b.summary
            assert a.top_targets == b.top_targets
            assert (a.design_name, a.n_runs, a.replications) == (
                b.design_name,
                b.n_runs,
                b.replications,
            )

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_warm_cache_identical_across_backends(
        self, tmp_path, reference, backend
    ):
        cache_dir = str(tmp_path)
        ScenarioSuite(NAMES, cache_dir=cache_dir).run(seed=SEED)  # fill
        result = ScenarioSuite(
            NAMES, runner=ExperimentRunner(backend, 2), cache_dir=cache_dir
        ).run(seed=SEED)
        assert (
            result.records_by_scenario()
            == reference.records_by_scenario()
        )

    def test_different_seed_misses(self, tmp_path, reference):
        cache_dir = str(tmp_path)
        ScenarioSuite(NAMES, cache_dir=cache_dir).run(seed=SEED)
        before = set(os.listdir(cache_dir))
        other = ScenarioSuite(NAMES, cache_dir=cache_dir).run(seed=SEED + 1)
        assert set(os.listdir(cache_dir)) > before  # new entries written
        assert (
            other.records_by_scenario()
            != reference.records_by_scenario()
        )


class TestDigestInvalidation:
    def test_every_spec_field_change_invalidates(self):
        base = SCENARIOS.get("smoke")
        seq = __import__("numpy").random.SeedSequence(1)
        base_key = ScenarioSuite._cache_key(base, seq)
        changed = {
            "replications": base.replications + 1,
            "horizon": base.horizon * 2,
            "tick_interval": base.tick_interval / 2,
            "tick_elision": not base.tick_elision,
            "threat": "duqu_like",
            "design_kind": "pb",
            "two_level": not base.two_level,
            "topology_params": {"n_office_pcs": 3},
            "tags": ("other",),
        }
        for field, value in changed.items():
            spec = Scenario.from_dict({**base.to_dict(), field: value})
            assert ScenarioSuite._cache_key(spec, seq) != base_key, field

    def test_seed_material_changes_key(self):
        import numpy as np

        spec = SCENARIOS.get("smoke")
        a = ScenarioSuite._cache_key(spec, np.random.SeedSequence(1))
        b = ScenarioSuite._cache_key(spec, np.random.SeedSequence(2))
        c = ScenarioSuite._cache_key(
            spec, np.random.SeedSequence(1).spawn(1)[0]
        )
        assert len({a, b, c}) == 3


class TestSharding:
    def test_shards_merge_to_full_run(self, reference):
        parts = [
            ScenarioSuite(NAMES, shard=(index, 2)).run(seed=SEED)
            for index in range(2)
        ]
        merged = SuiteResult.merge(parts)
        assert (
            merged.records_by_scenario()
            == reference.records_by_scenario()
        )

    def test_shard_selects_positions(self):
        suite = ScenarioSuite(NAMES, shard=(1, 2))
        assert suite.run(seed=SEED).names() == [NAMES[1]]

    def test_shards_share_a_cache(self, tmp_path, reference):
        cache_dir = str(tmp_path)
        for index in range(2):
            ScenarioSuite(
                NAMES, cache_dir=cache_dir, shard=(index, 2)
            ).run(seed=SEED)
        # A full warm run over the shard-filled cache executes nothing
        # new and reproduces the reference exactly.
        before = set(os.listdir(cache_dir))
        full = ScenarioSuite(NAMES, cache_dir=cache_dir).run(seed=SEED)
        assert set(os.listdir(cache_dir)) == before
        assert full.records_by_scenario() == reference.records_by_scenario()

    def test_invalid_shard_rejected(self):
        with pytest.raises(ValueError, match="shard"):
            ScenarioSuite(NAMES, shard=(2, 2))
        with pytest.raises(ValueError, match="shard"):
            ScenarioSuite(NAMES, shard=(0, 0))
        with pytest.raises(ValueError, match="shard"):
            ScenarioSuite(NAMES, shard=(0.0, 1))
        with pytest.raises(ValueError, match="shard"):
            ScenarioSuite(NAMES, shard=(0, 1.0))
        with pytest.raises(ValueError, match="shard"):
            ScenarioSuite(NAMES, shard=(False, True))

    def test_merge_rejects_duplicates(self, reference):
        with pytest.raises(ValueError, match="duplicate"):
            SuiteResult.merge([reference, reference])


class TestCacheRobustness:
    def test_readonly_cache_dir_does_not_sink_the_run(self, tmp_path, reference):
        cache_dir = tmp_path / "ro"
        cache_dir.mkdir()
        os.chmod(str(cache_dir), 0o555)
        try:
            result = ScenarioSuite(NAMES, cache_dir=str(cache_dir)).run(
                seed=SEED
            )
        finally:
            os.chmod(str(cache_dir), 0o755)
        assert (
            result.records_by_scenario()
            == reference.records_by_scenario()
        )

    def test_key_includes_library_version(self, monkeypatch):
        import numpy as np

        import repro

        spec = SCENARIOS.get("smoke")
        seq = np.random.SeedSequence(1)
        before = ScenarioSuite._cache_key(spec, seq)
        monkeypatch.setattr(repro, "__version__", "999.0.0")
        assert ScenarioSuite._cache_key(spec, seq) != before


class TestRecordsViewInvalidation:
    def test_table_reassignment_drops_cached_records(self, reference):
        from repro.results import RecordTable

        result = reference.by_name("smoke")
        first = result.records  # materialize + cache
        assert first == result.table.to_dicts()
        result.table = RecordTable.from_dicts([{"success": 1.0}])
        assert result.records == [{"success": 1.0}]

    def test_measurement_table_reassignment_drops_cached_records(self):
        from repro.core.measurement import MeasurementResult
        from repro.doe.design import Design
        from repro.results import RecordTable

        result = MeasurementResult(
            table=RecordTable.from_dicts([{"x": 1.0}]),
            run_indicators=[],
            design=Design(factors=[], runs=[], name="d"),
            replications=1,
        )
        assert result.records == [{"x": 1.0}]
        result.table = RecordTable.from_dicts([{"x": 2.0}])
        assert result.records == [{"x": 2.0}]


class TestUnserializableTables:
    def test_store_skips_instead_of_crashing(self, tmp_path, reference):
        import numpy as np

        from repro.results import RecordTable
        from repro.scenarios.suite import ScenarioRunResult

        suite = ScenarioSuite(NAMES, cache_dir=str(tmp_path))
        tuples = np.empty(1, dtype=object)
        tuples[:] = [(1, 2)]  # not npz-serializable
        bad = ScenarioRunResult(
            scenario=SCENARIOS.get("smoke"),
            table=RecordTable({"level": tuples}),
            summary={},
            top_targets={},
            design_name="d",
            n_runs=1,
            replications=1,
        )
        suite._store_in_cache("0" * 64, bad)  # must not raise
        assert not suite.cache.contains("0" * 64)
        assert not [
            name
            for name in os.listdir(str(tmp_path))
            if name.startswith(".tmp-")
        ]
