"""The end-to-end three-step pipeline (the paper's Figure 1).

:class:`DiversityStudy` wires attack modeling, DoE-driven measurement and
ANOVA-based assessment into one call, producing a :class:`StudyResult`
with every intermediate artifact and a plain-text report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

if TYPE_CHECKING:  # imported lazily to avoid a package cycle
    from repro.scenarios.spec import Scenario

import numpy as np

from repro.attacks.campaign import CampaignConfig
from repro.attacks.profiles import ThreatProfile
from repro.attacktree.analysis import evaluate as evaluate_tree
from repro.attacktree.tree import AttackTree
from repro.core.assessment import DiversityAssessment, assess
from repro.core.measurement import MeasurementPlan, MeasurementResult
from repro.core.modeling import attack_tree_for, san_model_for
from repro.core.report import format_table
from repro.diversity.catalog import VariantCatalog
from repro.diversity.config import configuration_factors
from repro.doe.design import Design, Factor
from repro.doe.factorial import full_factorial
from repro.doe.fractional import fractional_factorial
from repro.doe.plackett_burman import plackett_burman
from repro.exec.runner import ExperimentRunner
from repro.exec.seeding import SeedLike
from repro.results import Provenance, RecordTable
from repro.san.model import SANModel
from repro.scada.components import ComponentKind
from repro.scada.network import SCADANetwork
from repro.telemetry.core import TelemetrySnapshot


@dataclass
class StudyResult:
    """All artifacts of a diversity study.

    Attributes:
        design: The executed DoE design.
        measurement: Step-2 measurements.
        assessment: Step-3 ANOVA assessment.
        san_model: Step-1 SAN model of the baseline system.
        attack_tree: Step-1 attack tree of the baseline system.
        factors: Diversification factors considered.
        provenance: Reproduction record of the measurement execution
            (mirrors ``measurement.provenance``; ``None`` on the legacy
            shared-generator path).
        telemetry: Observability snapshot of the run (set by
            :class:`~repro.api.Session` when telemetry is enabled);
            outside the spec digest.
    """

    design: Design
    measurement: MeasurementResult
    assessment: DiversityAssessment
    san_model: SANModel
    attack_tree: AttackTree
    factors: List[Factor]
    provenance: Optional[Provenance] = None
    telemetry: Optional[TelemetrySnapshot] = None

    @property
    def table(self) -> RecordTable:
        """The measurement's columnar long-format record table."""
        return self.measurement.table

    @property
    def summary(self) -> Dict[str, float]:
        """Scalar comparison metrics over the measurement records."""
        return self.measurement.summary

    def report(self) -> str:
        """Human-readable study report."""
        tree_metrics = evaluate_tree(self.attack_tree)
        blocks = [
            "=" * 70,
            "DIVERSITY STUDY REPORT",
            "=" * 70,
            "",
            "Step 1 - Attack Modeling",
            f"  SAN model: {self.san_model.name} "
            f"({len(self.san_model.activities)} activities, "
            f"{len(self.san_model.places())} places)",
            f"  Attack tree root success probability: "
            f"{tree_metrics.probability:.4f}",
            f"  Attack tree expected time: {tree_metrics.expected_time:.2f}",
            "",
            "Step 2 - DoE & Measurements",
            f"  Design: {self.design.name} — {self.design.n_runs} runs x "
            f"{self.measurement.replications} replications",
            format_table(
                ["factor", "levels"],
                [(f.name, ", ".join(map(str, f.levels))) for f in self.factors],
            ),
            "",
            "Step 3 - Diversity Assessment",
            self.assessment.format_report(),
            "",
            "Recommended diversification targets (per indicator):",
        ]
        for response in self.measurement.response_names():
            targets = self.assessment.recommended_diversification(response)
            blocks.append(f"  {response}: {', '.join(targets)}")
        return "\n".join(blocks)


class DiversityStudy:
    """The three-step modeling and evaluation pipeline.

    Args:
        network_factory: Builds a fresh baseline network.
        catalog: Variant catalog.
        threat: Threat profile.
        kinds: Component kinds to diversify (default: every kind with
            >= 2 catalog variants present in the network).
        design_kind: ``"full"``, ``"fractional"`` or ``"pb"``.
        two_level: Restrict every factor to its two extreme variants
            (weakest and strongest), as required by fractional/PB
            designs.
        replications: Campaign replications per configuration.
        campaign_config: Campaign parameters.
        runner: Keyword-only.  The
            :class:`~repro.exec.runner.ExperimentRunner` to execute
            step 2 on (this is what :class:`repro.api.Session` passes),
            and the only way to choose a backend or worker count.  Any
            runner uses spawn-per-replication seeding, whose records are
            identical across backends and worker counts; ``None``
            (default) with a :class:`numpy.random.Generator` seed keeps
            the historical sequential shared-generator path.
    """

    def __init__(
        self,
        network_factory: Callable[[], SCADANetwork],
        catalog: VariantCatalog,
        threat: ThreatProfile,
        kinds: Optional[List[ComponentKind]] = None,
        design_kind: str = "full",
        two_level: bool = False,
        replications: int = 20,
        campaign_config: Optional[CampaignConfig] = None,
        *,
        runner: Optional[ExperimentRunner] = None,
    ) -> None:
        if design_kind not in ("full", "fractional", "pb"):
            raise ValueError(f"unknown design_kind {design_kind!r}")
        self.network_factory = network_factory
        self.catalog = catalog
        self.threat = threat
        self.kinds = kinds
        self.design_kind = design_kind
        self.two_level = two_level or design_kind in ("fractional", "pb")
        self.replications = replications
        self.campaign_config = campaign_config or CampaignConfig()
        self.runner = runner

    @classmethod
    def from_scenario(
        cls,
        scenario: "Scenario",
        *,
        runner: Optional[ExperimentRunner] = None,
    ) -> "DiversityStudy":
        """Build the study a declarative scenario spec describes.

        Args:
            scenario: A :class:`repro.scenarios.spec.Scenario` (or any
                object exposing its builder interface).
            runner: Step-2 runner — deliberately not part of the spec,
                so the same scenario runs anywhere.
        """
        return cls(
            network_factory=scenario.build_network_factory(),
            catalog=scenario.build_catalog(),
            threat=scenario.build_threat(),
            kinds=scenario.component_kinds(),
            design_kind=scenario.design_kind,
            two_level=scenario.two_level,
            replications=scenario.replications,
            campaign_config=scenario.build_campaign_config(),
            runner=runner,
        )

    def build_factors(self) -> List[Factor]:
        """Step-2 preamble: derive the diversification factors."""
        network = self.network_factory()
        factors = configuration_factors(network, self.catalog, self.kinds)
        if not self.two_level:
            return factors
        reduced: List[Factor] = []
        for factor in factors:
            kind = ComponentKind(factor.name)
            variants = sorted(
                self.catalog.variants_for(kind),
                key=lambda v: v.mean_exploitability,
            )
            strongest, weakest = variants[0], variants[-1]
            if strongest.name == weakest.name:
                continue
            reduced.append(Factor(factor.name, (weakest.name, strongest.name)))
        return reduced

    def build_design(self, factors: Sequence[Factor]) -> Design:
        """Instantiate the chosen DoE design over ``factors``."""
        factors = list(factors)
        if self.design_kind == "full":
            return full_factorial(factors)
        if self.design_kind == "pb":
            return plackett_burman(factors)
        # Fractional: half fraction with the last factor generated from
        # the product of all base factors (maximum resolution).
        k = len(factors)
        if k < 3:
            return full_factorial(factors)
        letters = "ABCDEFGHJKLMNPQRSTUVWXYZ"[: k - 1]
        generator = f"{'ABCDEFGHJKLMNPQRSTUVWXYZ'[k - 1]}={letters}"
        names = [f.name for f in factors]
        design, _ = fractional_factorial(names, [generator])
        # Re-level: fractional_factorial used (-1, 1); rebuild with the
        # factors' concrete variant levels.
        from repro.doe.design import Run

        runs = []
        for run in design.runs:
            settings = {}
            for factor in factors:
                coded = run[factor.name]
                settings[factor.name] = factor.levels[0 if coded == -1 else 1]
            runs.append(Run(settings))
        return Design(
            factors=factors, runs=runs, name=design.name,
            metadata=design.metadata,
        )

    def execute(
        self,
        rng: "SeedLike" = None,
        on_result: Optional[Callable[[int], None]] = None,
        cancel: Optional[Any] = None,
    ) -> StudyResult:
        """Run all three steps.

        Args:
            rng: Seed or generator for step 2 — a
                :class:`numpy.random.Generator` keeps the historical
                shared-generator stream when no runner is set; a plain
                seed (or any runner) uses the backend-invariant
                spawn-per-replication path of :mod:`repro.exec`.
            on_result: Optional step-2 progress hook (per design run).
            cancel: Optional cancellation event — see
                :meth:`repro.core.measurement.MeasurementPlan.execute`.
        """
        baseline = self.network_factory()
        san_model = san_model_for(baseline, self.catalog, self.threat)
        attack_tree = attack_tree_for(baseline, self.catalog, self.threat)

        factors = self.build_factors()
        if not factors:
            raise ValueError(
                "no diversifiable factors found (need >= 2 catalog variants "
                "for at least one component kind present in the network)"
            )
        design = self.build_design(factors)
        plan = MeasurementPlan(
            self.network_factory,
            self.catalog,
            self.threat,
            design,
            replications=self.replications,
            campaign_config=self.campaign_config,
        )
        measurement = plan.execute(
            rng, runner=self.runner, on_result=on_result, cancel=cancel
        )
        assessment = assess(measurement)
        return StudyResult(
            design=design,
            measurement=measurement,
            assessment=assessment,
            san_model=san_model,
            attack_tree=attack_tree,
            factors=factors,
            provenance=measurement.provenance,
        )
