"""Performance benchmarks of the Monte-Carlo experiment pipeline.

End-to-end throughput of ``AttackCampaign.run_batch`` and
``ScenarioSuite.run`` is what bounds how many scenarios and replications
the paper's tables can afford, so these benchmarks time the two hot
paths introduced by the tick-elision / columnar-results work:

* ``perf_campaign_run_batch`` vs ``perf_campaign_run_batch_legacy`` —
  the same seeded 60-replication batch with the tick-elision fast path
  (default) and with the retained legacy per-tick loop
  (``tick_elision=False``).  Campaigns are module-scoped so the shared
  healthy trajectory is warm across benchmark rounds, which is the
  steady state of any real batch (the one-off scan amortizes over the
  batch's replications).
* ``perf_suite_run`` vs ``perf_suite_run_legacy`` — a three-scenario
  suite on the default specs and on ``tick_elision=False`` twins; each
  round builds fresh campaigns internally, so this measures the cold
  end-to-end pipeline including columnar aggregation and ANOVA.
* ``perf_suite_run_warm_cache`` — the same suite served from a
  populated content-addressed cache; read against ``perf_suite_run``
  it gives the warm/cold ratio, and it checks that the warm records
  equal the cold ones.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks.campaign import AttackCampaign, CampaignConfig
from repro.scenarios.registry import SCENARIOS
from repro.scenarios.spec import Scenario
from repro.scenarios.suite import ScenarioSuite

_BATCH_SCENARIO = "cooling_duqu"
_BATCH_REPS = 60
_SUITE_NAMES = ("cooling_stuxnet", "cooling_duqu", "cooling_flame")
_SUITE_SEED = 2013


def _batch_campaign(tick_elision: bool) -> AttackCampaign:
    scenario = SCENARIOS.get(_BATCH_SCENARIO)
    config = CampaignConfig(
        plant_factory=scenario.build_campaign_config().plant_factory,
        tick_elision=tick_elision,
    )
    return AttackCampaign(
        scenario.build_network(),
        scenario.build_catalog(),
        scenario.build_threat(),
        config,
    )


@pytest.fixture(scope="module", name="campaign_fast")
def campaign_fast_fixture():
    return _batch_campaign(tick_elision=True)


@pytest.fixture(scope="module", name="campaign_legacy")
def campaign_legacy_fixture():
    return _batch_campaign(tick_elision=False)


def test_perf_campaign_run_batch(benchmark, campaign_fast):
    """Tick-elision fast path (the default event loop)."""
    outcomes = benchmark(campaign_fast.run_batch, _BATCH_REPS, 99)
    assert len(outcomes) == _BATCH_REPS


def test_perf_campaign_run_batch_legacy(benchmark, campaign_legacy):
    """Legacy per-tick loop — the pre-elision baseline."""
    outcomes = benchmark(campaign_legacy.run_batch, _BATCH_REPS, 99)
    assert len(outcomes) == _BATCH_REPS


def test_campaign_modes_agree(campaign_fast, campaign_legacy):
    """The two benchmarked paths measure identical experiments."""
    horizon = campaign_fast.config.horizon
    fast = [
        o.response_row(horizon) for o in campaign_fast.run_batch(10, 99)
    ]
    legacy = [
        o.response_row(horizon) for o in campaign_legacy.run_batch(10, 99)
    ]
    assert fast == legacy


def _suite_scenarios(tick_elision: bool):
    specs = [SCENARIOS.get(name) for name in _SUITE_NAMES]
    if tick_elision:
        return specs
    return [
        Scenario.from_dict({**spec.to_dict(), "tick_elision": False})
        for spec in specs
    ]


def test_perf_suite_run(benchmark):
    """Cold suite run on the default (tick-elision) scenario specs."""
    suite = ScenarioSuite(_suite_scenarios(True))
    result = benchmark(suite.run, _SUITE_SEED)
    assert result.names() == list(_SUITE_NAMES)


def test_perf_suite_run_legacy(benchmark):
    """Cold suite run forced onto the legacy per-tick campaign loop."""
    suite = ScenarioSuite(_suite_scenarios(False))
    result = benchmark(suite.run, _SUITE_SEED)
    assert result.names() == list(_SUITE_NAMES)


def test_perf_suite_run_session(benchmark):
    """The same three-scenario suite through ``Session.submit``.

    Read against ``perf_suite_run``, the ratio is the facade overhead
    (JobHandle + progress hooks), expected ~1.0 — submitting through
    ``repro.api`` must cost no wall-clock over the direct
    ``ScenarioSuite.run`` call.
    """
    from repro.api import Session

    session = Session()

    def run_via_session():
        return session.submit(
            list(_SUITE_NAMES), seed=_SUITE_SEED
        ).result()

    result = benchmark(run_via_session)
    session.close()
    assert result.names() == list(_SUITE_NAMES)


def test_perf_suite_run_warm_cache(benchmark, tmp_path_factory):
    """The same suite answered from a warm content-addressed cache."""
    cache_dir = str(tmp_path_factory.mktemp("suite-cache"))
    warm = ScenarioSuite(_suite_scenarios(True), cache_dir=cache_dir)
    reference = warm.run(_SUITE_SEED)  # populate the cache

    def run_warm():
        return ScenarioSuite(
            _suite_scenarios(True), cache_dir=cache_dir
        ).run(_SUITE_SEED)

    result = benchmark(run_warm)
    assert result.records_by_scenario() == reference.records_by_scenario()
