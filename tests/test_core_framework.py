"""Tests for modeling, measurement, assessment, study and report."""

import numpy as np
import pytest

from repro.attacks.campaign import CampaignConfig
from repro.attacks.profiles import stuxnet_like
from repro.attacktree.analysis import evaluate as evaluate_tree
from repro.core.assessment import assess
from repro.core.measurement import MeasurementPlan
from repro.core.modeling import (
    attack_tree_for,
    bayesian_attack_graph_for,
    san_model_for,
    stage_probabilities,
)
from repro.core.report import comparison_table, format_series, format_table
from repro.core.study import DiversityStudy
from repro.doe.design import Design, Factor, Run
from repro.san.ctmc import san_to_ctmc
from repro.scada.components import ComponentKind
from repro.scada.topologies import scope_cooling_topology

K = ComponentKind
FAST = CampaignConfig(horizon=80.0, tick_interval=0.5)


class TestStageProbabilities:
    def test_all_stages_present(self, network, catalog, threat):
        probs = stage_probabilities(network, catalog, threat)
        assert set(probs) == {"entry", "escalation", "propagation", "reprogram"}
        assert all(0.0 <= p <= 1.0 for p in probs.values())

    def test_hardening_lowers_probabilities(self, catalog, threat):
        soft = stage_probabilities(
            scope_cooling_topology(), catalog, threat
        )
        hard = stage_probabilities(
            scope_cooling_topology(
                default_os="linux_hardened",
                default_firmware="firmware_signed",
            ),
            catalog,
            threat,
        )
        assert hard["entry"] < soft["entry"]
        assert hard["escalation"] < soft["escalation"]
        assert hard["reprogram"] < soft["reprogram"]


class TestModelBuilders:
    def test_san_model_is_ctmc_analyzable(self, network, catalog, threat):
        model = san_model_for(network, catalog, threat)
        ctmc = san_to_ctmc(model)
        assert ctmc.n_states >= 5

    def test_san_give_up_variant_has_absorbing_failure(
        self, network, catalog, threat
    ):
        model = san_model_for(network, catalog, threat, give_up=True)
        ctmc = san_to_ctmc(model)
        impair = [
            i for i, s in enumerate(ctmc.states) if dict(s).get("impaired")
        ]
        start = int(np.argmax(ctmc.initial))
        p = ctmc.hitting_probability(impair)[start]
        assert 0.0 < p < 1.0  # give-up makes success uncertain

    def test_hardened_san_has_lower_success(self, catalog, threat):
        def success_prob(net):
            model = san_model_for(net, catalog, threat, give_up=True)
            ctmc = san_to_ctmc(model)
            impair = [
                i for i, s in enumerate(ctmc.states) if dict(s).get("impaired")
            ]
            return ctmc.hitting_probability(impair)[int(np.argmax(ctmc.initial))]

        soft = success_prob(scope_cooling_topology())
        hard = success_prob(
            scope_cooling_topology(
                default_os="linux_hardened",
                default_firmware="firmware_signed",
                default_stack="modbus_variant_b",
            )
        )
        assert hard < soft

    def test_attack_tree_probability_in_unit_interval(
        self, network, catalog, threat
    ):
        tree = attack_tree_for(network, catalog, threat)
        metrics = evaluate_tree(tree)
        assert 0.0 <= metrics.probability <= 1.0
        assert metrics.expected_time > 0.0

    def test_attack_tree_hardening_effect(self, catalog, threat):
        soft = evaluate_tree(
            attack_tree_for(scope_cooling_topology(), catalog, threat)
        ).probability
        hard = evaluate_tree(
            attack_tree_for(
                scope_cooling_topology(
                    default_os="linux_hardened",
                    default_firmware="firmware_signed",
                ),
                catalog,
                threat,
            )
        ).probability
        assert hard < soft

    def test_bayesian_graph_reaches_plc(self, network, catalog, threat):
        graph = bayesian_attack_graph_for(network, catalog, threat)
        p = graph.compromise_probability("plc_0")
        assert 0.0 < p <= 1.0

    def test_bayesian_graph_hardening_effect(self, catalog, threat):
        soft = bayesian_attack_graph_for(
            scope_cooling_topology(), catalog, threat
        ).compromise_probability("plc_0")
        hard = bayesian_attack_graph_for(
            scope_cooling_topology(
                default_os="linux_hardened",
                default_firmware="firmware_signed",
                default_stack="modbus_variant_b",
            ),
            catalog,
            threat,
        ).compromise_probability("plc_0")
        assert hard < soft


@pytest.fixture(scope="module")
def measurement(catalog_module, threat_module):
    factors = [
        Factor("operating_system", ("win_legacy", "linux_hardened")),
        Factor("plc_firmware", ("firmware_common", "firmware_signed")),
    ]
    from repro.doe.factorial import full_factorial

    design = full_factorial(factors)
    plan = MeasurementPlan(
        scope_cooling_topology,
        catalog_module,
        threat_module,
        design,
        replications=10,
        campaign_config=FAST,
    )
    return plan.execute(np.random.default_rng(42))


@pytest.fixture(scope="module")
def catalog_module():
    from repro.diversity.catalog import default_catalog

    return default_catalog()


@pytest.fixture(scope="module")
def threat_module():
    return stuxnet_like()


class TestMeasurement:
    def test_record_count(self, measurement):
        assert len(measurement.records) == 4 * 10

    def test_records_carry_factor_levels(self, measurement):
        for record in measurement.records:
            assert record["operating_system"] in (
                "win_legacy", "linux_hardened",
            )
            assert record["plc_firmware"] in (
                "firmware_common", "firmware_signed",
            )

    def test_responses_present_and_finite(self, measurement):
        for record in measurement.records:
            for response in ("success", "tta", "ttsf", "final_ratio"):
                value = float(record[response])
                assert value == value  # not NaN

    def test_tta_restricted_at_horizon(self, measurement):
        for record in measurement.records:
            assert 0.0 <= float(record["tta"]) <= FAST.horizon

    def test_run_indicators_parallel_to_design(self, measurement):
        assert len(measurement.run_indicators) == measurement.design.n_runs

    def test_hardened_runs_have_higher_tta(self, measurement):
        by_os = {}
        for record in measurement.records:
            by_os.setdefault(record["operating_system"], []).append(
                float(record["tta"])
            )
        assert (
            np.mean(by_os["linux_hardened"]) > np.mean(by_os["win_legacy"])
        )

    def test_zero_replications_rejected(self, catalog_module, threat_module):
        from repro.doe.factorial import full_factorial

        design = full_factorial(
            [Factor("operating_system", ("a", "b"))]
        )
        with pytest.raises(ValueError):
            MeasurementPlan(
                scope_cooling_topology, catalog_module, threat_module,
                design, replications=0,
            )


class TestAssessment:
    def test_allocation_tables_per_response(self, measurement):
        result = assess(measurement)
        assert set(result.anova_tables) == {
            "success", "tta", "ttsf", "final_ratio",
        }

    def test_os_dominates_tta_variance(self, measurement):
        result = assess(measurement)
        ranking = result.ranking("tta")
        assert ranking[0].component == "operating_system"

    def test_recommendations_are_factor_names(self, measurement):
        result = assess(measurement)
        recs = result.recommended_diversification("tta", top=2)
        assert set(recs) <= {"operating_system", "plc_firmware"}

    def test_report_renders(self, measurement):
        result = assess(measurement)
        text = result.format_report()
        assert "Variance allocation" in text
        assert "operating_system" in text

    def test_empty_measurement_rejected(self, measurement):
        import copy

        empty = copy.copy(measurement)
        empty.records = []
        with pytest.raises(ValueError):
            assess(empty)


class TestStudyPipeline:
    def test_full_study_end_to_end(self, catalog):
        study = DiversityStudy(
            network_factory=scope_cooling_topology,
            catalog=catalog,
            threat=stuxnet_like(),
            kinds=[K.OPERATING_SYSTEM, K.PLC_FIRMWARE],
            design_kind="full",
            two_level=True,
            replications=5,
            campaign_config=FAST,
        )
        result = study.execute(np.random.default_rng(3))
        assert result.design.n_runs == 4
        assert len(result.measurement.records) == 20
        report = result.report()
        assert "Step 1" in report and "Step 3" in report

    def test_factor_reduction_to_extremes(self, catalog):
        study = DiversityStudy(
            network_factory=scope_cooling_topology,
            catalog=catalog,
            threat=stuxnet_like(),
            kinds=[K.OPERATING_SYSTEM],
            two_level=True,
        )
        factors = study.build_factors()
        assert len(factors) == 1
        levels = factors[0].levels
        assert len(levels) == 2
        # Weakest first, strongest second by construction.
        assert levels[0] == "win_legacy"

    def test_fractional_design_halves_runs(self, catalog):
        study = DiversityStudy(
            network_factory=scope_cooling_topology,
            catalog=catalog,
            threat=stuxnet_like(),
            kinds=[
                K.OPERATING_SYSTEM,
                K.PLC_FIRMWARE,
                K.PROTOCOL_STACK,
                K.ANTIVIRUS,
            ],
            design_kind="fractional",
        )
        factors = study.build_factors()
        design = study.build_design(factors)
        assert design.n_runs == 2 ** (len(factors) - 1)

    def test_pb_design_small(self, catalog):
        study = DiversityStudy(
            network_factory=scope_cooling_topology,
            catalog=catalog,
            threat=stuxnet_like(),
            design_kind="pb",
        )
        factors = study.build_factors()
        design = study.build_design(factors)
        assert design.n_runs <= 12

    def test_unknown_design_kind_rejected(self, catalog):
        with pytest.raises(ValueError):
            DiversityStudy(
                network_factory=scope_cooling_topology,
                catalog=catalog,
                threat=stuxnet_like(),
                design_kind="magic",
            )



class TestReportHelpers:
    def test_format_table_alignment(self):
        text = format_table(
            ["name", "value"], [("a", 1.5), ("bb", 2.25)], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]

    def test_format_table_nan_rendered_as_dashes(self):
        text = format_table(["x"], [(float("nan"),)])
        assert "--" in text

    def test_format_series(self):
        text = format_series("k", ["psa"], [(1, 0.5), (2, 0.25)])
        assert "psa" in text

    def test_comparison_table_column_order_and_rows(self):
        text = comparison_table(
            "study",
            {
                "a": {"psa": 0.5, "tta": 10.0},
                "b": {"psa": 0.25, "tta": 20.0},
            },
            columns=("tta", "psa"),
            title="cmp",
        )
        lines = text.splitlines()
        assert lines[0] == "cmp"
        header = lines[1]
        assert header.index("tta") < header.index("psa")
        assert [line.split()[0] for line in lines[3:]] == ["a", "b"]

    def test_comparison_table_default_columns_first_appearance(self):
        text = comparison_table(
            "s",
            {"a": {"x": 1.0}, "b": {"y": 2.0, "x": 3.0}},
        )
        header = text.splitlines()[0]
        assert header.index("x") < header.index("y")

    def test_comparison_table_missing_metric_dashes(self):
        text = comparison_table(
            "s",
            {"a": {"x": 1.0, "y": 2.0}, "b": {"x": 3.0}},
        )
        assert "--" in text
