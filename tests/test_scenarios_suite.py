"""Suite runner: determinism, aggregation, comparison report.

The fast tests here keep tier 1 quick by using the smoke scenario and a
downsized clone.  The full built-in suite across all three backends —
the expensive cross-backend bit-identity guarantee — carries the
``scenario`` marker and runs with ``-m "scenario or bench"``.
"""

import dataclasses

import pytest

from repro.core.study import DiversityStudy
from repro.exec.runner import ExperimentRunner
from repro.results import summarize_records
from repro.scenarios import SCENARIOS, Scenario, ScenarioSuite, get_scenario

SMOKE = get_scenario("smoke")
#: A second tiny scenario so fast suite tests are multi-scenario.
SMOKE_GRID = dataclasses.replace(
    SMOKE,
    name="smoke_grid",
    topology="smart_grid_feeder",
    plant="feeder",
    topology_params={"n_office_pcs": 1, "n_operator_consoles": 1},
    tags=("smoke",),
)


class TestSuiteConstruction:
    def test_empty_suite_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            ScenarioSuite([])

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            ScenarioSuite(["smoke", "not_a_scenario"])

    def test_duplicate_scenarios_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ScenarioSuite(["smoke", SMOKE])

    def test_execution_is_configured_only_through_a_runner(self):
        # Execution knobs passed by keyword or position must fail
        # loudly, never bind to another parameter such as ``registry``.
        with pytest.raises(TypeError):
            ScenarioSuite(["smoke"], backend="thread")
        with pytest.raises(TypeError):
            ScenarioSuite(["smoke"], "thread")
        with pytest.raises(TypeError):
            DiversityStudy.from_scenario(SMOKE, "thread")
        with pytest.raises(TypeError):
            DiversityStudy.from_scenario(SMOKE, n_workers=2)

    def test_accepts_specs_and_names_mixed(self):
        suite = ScenarioSuite([SMOKE_GRID, "smoke"])
        assert [s.name for s in suite.scenarios] == ["smoke_grid", "smoke"]


class TestSuiteRun:
    @pytest.fixture(scope="class")
    def serial_result(self):
        return ScenarioSuite([SMOKE, SMOKE_GRID]).run(seed=42)

    def test_results_in_suite_order(self, serial_result):
        assert serial_result.names() == ["smoke", "smoke_grid"]

    def test_record_counts(self, serial_result):
        for result in serial_result.results:
            assert len(result.records) == result.n_runs * result.replications

    def test_summary_metrics_present_and_finite(self, serial_result):
        for result in serial_result.results:
            for metric in ("psa", "tta_mean", "ttsf_mean",
                           "final_ratio_mean"):
                assert result.summary[metric] == result.summary[metric]
            assert 0.0 <= result.summary["psa"] <= 1.0
            assert 0.0 < result.summary["tta_mean"] <= SMOKE.horizon

    def test_thread_backend_bit_identical(self, serial_result):
        threaded = ScenarioSuite(
            [SMOKE, SMOKE_GRID], runner=ExperimentRunner("thread", 2)
        ).run(seed=42)
        assert (
            threaded.records_by_scenario()
            == serial_result.records_by_scenario()
        )

    def test_different_seed_different_records(self, serial_result):
        other = ScenarioSuite([SMOKE, SMOKE_GRID]).run(seed=43)
        assert (
            other.records_by_scenario()
            != serial_result.records_by_scenario()
        )

    def test_by_name(self, serial_result):
        assert serial_result.by_name("smoke").scenario == SMOKE
        with pytest.raises(ValueError, match="not in suite"):
            serial_result.by_name("cooling_stuxnet")

    def test_comparison_report_renders(self, serial_result):
        report = serial_result.comparison_report()
        assert "smoke" in report and "smoke_grid" in report
        assert "psa" in report
        assert "diversification target" in report

    def test_top_targets_are_factor_names_or_dash(self, serial_result):
        factor_names = {"operating_system", "plc_firmware", "--"}
        for result in serial_result.results:
            for response, target in result.top_targets.items():
                assert target in factor_names, (response, target)


class TestDeliveryEquivalence:
    """Every way of consuming a suite run yields the same results.

    Hooks, caching, journaling and failure isolation all ride on the
    one per-unit delivery path; none may change records or provenance.
    """

    SEED = 1234

    @staticmethod
    def _digest(result):
        return (
            result.records_by_scenario(),
            {
                r.scenario.name: r.provenance.to_dict()
                for r in result.results
            },
        )

    @pytest.fixture(scope="class")
    def reference(self):
        return self._digest(
            ScenarioSuite([SMOKE, SMOKE_GRID]).run(seed=self.SEED)
        )

    def test_on_result(self, reference):
        seen = []
        result = ScenarioSuite([SMOKE, SMOKE_GRID]).run(
            seed=self.SEED, on_result=lambda r: seen.append(r.scenario.name)
        )
        assert seen == ["smoke", "smoke_grid"]
        assert self._digest(result) == reference

    def test_cache_dir_cold_and_warm(self, tmp_path, reference):
        for _ in range(2):
            result = ScenarioSuite(
                [SMOKE, SMOKE_GRID], cache_dir=str(tmp_path)
            ).run(seed=self.SEED)
            assert self._digest(result) == reference

    def test_journal(self, tmp_path, reference):
        result = ScenarioSuite([SMOKE, SMOKE_GRID]).run(
            seed=self.SEED, journal=tmp_path / "run.journal"
        )
        assert self._digest(result) == reference

    def test_on_error_skip(self, reference):
        result = ScenarioSuite([SMOKE, SMOKE_GRID]).run(
            seed=self.SEED, on_error="skip"
        )
        assert result.errors == []
        assert self._digest(result) == reference


class TestSummarize:
    def test_empty_records_all_nan(self):
        summary = summarize_records([])
        assert all(value != value for value in summary.values())

    def test_known_values(self):
        records = [
            {"success": 1.0, "tta": 4.0, "ttsf": 2.0, "final_ratio": 0.5},
            {"success": 0.0, "tta": 8.0, "ttsf": 6.0, "final_ratio": 0.25},
        ]
        summary = summarize_records(records)
        assert summary["psa"] == 0.5
        assert summary["tta_mean"] == 6.0
        assert summary["ttsf_mean"] == 4.0
        assert summary["final_ratio_mean"] == 0.375


@pytest.mark.scenario
class TestFullBuiltinSuiteAcrossBackends:
    """The acceptance guarantee: every built-in scenario, bit-identical
    per-scenario records on serial, thread and process backends."""

    def test_builtin_suite_bit_identical_across_backends(self):
        names = SCENARIOS.names()
        assert len(names) >= 8
        reference = None
        for backend in ("serial", "thread", "process"):
            result = ScenarioSuite(
                names, runner=ExperimentRunner(backend, 4)
            ).run(seed=2013)
            records = result.records_by_scenario()
            assert sorted(records) == names
            if reference is None:
                reference = records
            else:
                assert records == reference, f"{backend} diverged"
