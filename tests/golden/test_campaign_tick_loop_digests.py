"""Pinned digests of the per-tick campaign loop (``tick_elision=False``).

The 12-built-in records digest runs only the tick-elided path, and the
elision equivalence suite compares two paths that share the plant
physics and the event queue.  These digests pin the per-tick loop on its
own: every plant/master tick runs through ``on_tick``, so any change to
plant stepping, damage integration, master polling or event ordering
that moves one record field or one trace entry moves a digest; a pure
speed change must leave all of them alone.

Cases: the two paper case studies, ``cooling_stuxnet`` (cooling plant)
and ``smart_grid_stuxnet`` (power feeder), each as a whole scenario run
(records digest and executed-tick count) and as 20 single replications
of the scenario's campaign (outcome fields and full event traces).
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro.api import Session
from repro.attacks.campaign import AttackCampaign
from repro.scenarios import get_scenario
from tests.test_campaign_tick_elision import outcome_signature
from tests.test_campaign_trajectory_cache import records_digest

SEED = 3
CASES = ("cooling_stuxnet", "smart_grid_stuxnet")


def tick_loop_scenario(name):
    scenario = replace(get_scenario(name), tick_elision=False)
    assert not scenario.build_campaign_config().tick_elision
    return scenario


#: ``name: (records digest, campaign.ticks_executed)`` of
#: ``Session(...).run([scenario], seed=SEED)`` on the per-tick loop.
RUN_GOLDEN = {
    "cooling_stuxnet": (
        "02f6b54ddf8aacb3298415917430d136"
        "91bd23ad139de1a5f798c0e3aad3d256",
        7_774,
    ),
    "smart_grid_stuxnet": (
        "88cf3b327120117dd7edfb6957def14b"
        "810c509419a8dabca9a5547598747029",
        10_014,
    ),
}

#: SHA-256 over ``outcome_signature`` of ``campaign.run`` for seeds 0-19
#: (every one of them reaches sabotage and the goal on both plants).
TRACE_GOLDEN = {
    "cooling_stuxnet": (
        "fab342eed743877d247ef9a3f2fb3394"
        "beb3df090d07e82caf7590951cf38706"
    ),
    "smart_grid_stuxnet": (
        "383230e13cd42daa5a0495704af02d04"
        "63b8b2a677cfca3ba4f12e4a945335a3"
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_scenario_records_digest(name):
    result = Session(backend="serial", n_workers=2, telemetry=True).run(
        [tick_loop_scenario(name)], seed=SEED
    )
    counters = result.telemetry.metrics["counters"]
    assert (records_digest(result), counters["campaign.ticks_executed"]) == (
        RUN_GOLDEN[name]
    )


@pytest.mark.parametrize("name", CASES)
def test_replication_trace_digest(name):
    scenario = tick_loop_scenario(name)
    campaign = AttackCampaign(
        scenario.build_network(),
        scenario.build_catalog(),
        scenario.build_threat(),
        scenario.build_campaign_config(),
    )
    digest = hashlib.sha256()
    for seed in range(20):
        outcome = campaign.run(np.random.default_rng(seed))
        digest.update(repr(outcome_signature(outcome)).encode())
    assert digest.hexdigest() == TRACE_GOLDEN[name]
