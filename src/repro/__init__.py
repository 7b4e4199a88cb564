"""repro — diversity-based security evaluation for monitoring and control systems.

A from-scratch reproduction of D. Cotroneo, A. Pecchia, S. Russo,
*"Towards Secure Monitoring and Control Systems: Diversify!"* (DSN 2013).

The library implements the paper's three-step modeling and evaluation
approach — attack modeling, DoE & measurements, ANOVA-based diversity
assessment — together with every substrate it depends on: a discrete-event
simulation kernel, a stochastic-activity-network engine with exact CTMC
analysis, GSPNs, attack trees, Bayesian attack graphs, a zoned SCADA
system model with a diversifiable Modbus-like protocol, a physical
cooling-plant model, and Stuxnet/Duqu/Flame-like threat profiles.

Quickstart::

    import numpy as np
    from repro import (
        DiversityStudy, default_catalog, scope_cooling_topology,
        stuxnet_like,
    )

    study = DiversityStudy(
        network_factory=scope_cooling_topology,
        catalog=default_catalog(),
        threat=stuxnet_like(),
        design_kind="fractional",
        replications=20,
    )
    result = study.execute(np.random.default_rng(42))
    print(result.report())
"""

import logging as _logging

# Library convention: silent unless the application configures logging
# (or asks for it via Session(verbose=True) / repro.telemetry
# .configure_logging).  Every module logger lives under "repro".
_logging.getLogger(__name__).addHandler(_logging.NullHandler())

from repro.attacks import (
    AttackCampaign,
    AttackOutcome,
    AttackStage,
    CampaignConfig,
    ThreatProfile,
    duqu_like,
    flame_like,
    stuxnet_like,
)
from repro.core import (
    DiversityStudy,
    IndicatorSet,
    MeasurementPlan,
    PlacementProblem,
    StudyResult,
    assess,
    attack_tree_for,
    bayesian_attack_graph_for,
    compute_indicators,
    san_model_for,
)
from repro.diversity import (
    SystemConfiguration,
    VariantCatalog,
    default_catalog,
)
from repro.exec import ExperimentRunner
from repro.scada.network import SCADANetwork, Zone
from repro.scada.topologies import scope_cooling_topology, smart_grid_feeder
from repro.scenarios import (
    SCENARIOS,
    Scenario,
    ScenarioRegistry,
    ScenarioSuite,
    SuiteResult,
    get_scenario,
    register_scenario,
)

# The stable public facade (imported last: it composes the subsystems
# above).  See the README "Public API" section.
from repro.api import (
    JobCancelled,
    JobHandle,
    JobState,
    Provenance,
    RunResult,
    Session,
    StudyBuilder,
)
from repro.telemetry import (
    Telemetry,
    TelemetrySnapshot,
    configure_logging,
)

__version__ = "2.8.3"

__all__ = [
    "AttackCampaign",
    "AttackOutcome",
    "AttackStage",
    "CampaignConfig",
    "DiversityStudy",
    "ExperimentRunner",
    "IndicatorSet",
    "JobCancelled",
    "JobHandle",
    "JobState",
    "MeasurementPlan",
    "PlacementProblem",
    "Provenance",
    "RunResult",
    "SCADANetwork",
    "SCENARIOS",
    "Scenario",
    "ScenarioRegistry",
    "ScenarioSuite",
    "Session",
    "StudyBuilder",
    "StudyResult",
    "SuiteResult",
    "SystemConfiguration",
    "Telemetry",
    "TelemetrySnapshot",
    "ThreatProfile",
    "VariantCatalog",
    "Zone",
    "assess",
    "attack_tree_for",
    "bayesian_attack_graph_for",
    "compute_indicators",
    "configure_logging",
    "default_catalog",
    "duqu_like",
    "flame_like",
    "get_scenario",
    "register_scenario",
    "san_model_for",
    "scope_cooling_topology",
    "smart_grid_feeder",
    "stuxnet_like",
    "__version__",
]
