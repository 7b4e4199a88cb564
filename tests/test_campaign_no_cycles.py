"""A scalar campaign replication is freed by refcount, not by the cyclic GC.

The handler closures of ``AttackCampaign._replicate`` call each other
through closure cells, and events still queued when a replication ends
reach the engine back through theirs.  ``_replicate`` breaks those
cycles before it returns (or raises); without that, every replication's
whole object graph — engine, events, plant, master, spoofer, generator —
is left for the cyclic garbage collector.

Each case warms every cache first (trajectory, tables, lazy imports),
collects, then runs the work with the collector disabled and asserts
that a collection afterwards finds nothing unreachable.
"""

import gc
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from repro.api import Session
from repro.attacks.campaign import AttackCampaign, _HealthyTickTrajectory
from repro.attacks.stages import AttackStage, StageTracker
from repro.scenarios.registry import SCENARIOS

REPLICATIONS = 40


@contextmanager
def collector_off():
    """Collect, then keep the cyclic GC off for the block."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def assert_no_cyclic_garbage(work):
    work()  # warm-up: caches and lazy imports may allocate cycles once
    with collector_off():
        work()
        assert gc.collect() == 0


def campaign_for(scenario, **config_overrides):
    return AttackCampaign(
        scenario.build_network(),
        scenario.build_catalog(),
        scenario.build_threat(),
        replace(scenario.build_campaign_config(), **config_overrides),
    )


def run_scalar(campaign):
    for seed in range(REPLICATIONS):
        campaign.run(np.random.default_rng(seed))


@pytest.mark.parametrize("backend", ["serial", "thread"])
def test_builtin_suite_leaves_no_cycles(backend):
    names = sorted(SCENARIOS.names())
    assert len(names) == 12
    session = Session(backend=backend, n_workers=2)
    assert_no_cyclic_garbage(lambda: session.run(names, seed=5))


def test_legacy_tick_loop_leaves_no_cycles():
    campaign = campaign_for(
        SCENARIOS.get("cooling_stuxnet"), tick_elision=False
    )
    assert_no_cyclic_garbage(lambda: run_scalar(campaign))


def test_eviction_leaves_no_cycles():
    scenario = replace(SCENARIOS.get("cooling_duqu"), response_enabled=True)
    campaign = campaign_for(scenario)
    outcomes = [
        campaign.run(np.random.default_rng(seed))
        for seed in range(REPLICATIONS)
    ]
    assert any(outcome.evicted for outcome in outcomes)
    assert_no_cyclic_garbage(lambda: run_scalar(campaign))


def test_pending_exfiltration_check_leaves_no_cycles():
    campaign = campaign_for(SCENARIOS.get("cooling_duqu"))
    assert campaign.threat.goal == "exfiltrate"
    assert_no_cyclic_garbage(lambda: run_scalar(campaign))


class _HandlerFailure(RuntimeError):
    pass


def test_raising_handler_leaves_no_cycles(monkeypatch):
    reach = StageTracker.reach

    def failing_reach(self, stage, time, subject):
        if stage is AttackStage.ACTIVATED:
            raise _HandlerFailure("injected in on_activation")
        return reach(self, stage, time, subject)

    monkeypatch.setattr(StageTracker, "reach", failing_reach)
    campaign = campaign_for(SCENARIOS.get("cooling_stuxnet"))

    raised = []

    def work():
        for seed in range(REPLICATIONS):
            try:
                campaign.run(np.random.default_rng(seed))
            except _HandlerFailure:
                raised.append(seed)

    assert_no_cyclic_garbage(work)
    assert raised


def test_cold_trajectory_leaves_no_cycles():
    # While the healthy trajectory is still being scanned, a
    # milestone-scan event waits at its frontier; a replication that
    # ends first leaves it queued in the engine its action closes over.
    # Each replication here gets a fresh, unscanned trajectory.
    campaign = campaign_for(SCENARIOS.get("cooling_stuxnet"))
    tables = campaign._compile_tables()

    def work():
        for seed in range(REPLICATIONS):
            trajectory = _HealthyTickTrajectory(campaign.config)
            campaign._replicate(
                np.random.default_rng(seed), tables, trajectory
            )

    assert_no_cyclic_garbage(work)
