"""Pinned work counters of the three benchmark workloads.

Wall time is noisy; the work a run does is not.  A
``Session(telemetry=True)`` run counts it: work units dispatched,
healthy trajectories built, sabotage resumes, ticks elided, relaxation
sweeps, shards spilled.  Every count is a pure function of the spec, the
seed and the code.  This file pins the counter dict of one run per
``BENCHMARK.json`` workload — every counter exactly, except the bytes a
spill writes, which also depend on NumPy's ``.npz`` format:

* ``suite12`` — the 12 built-ins, scalar, at seed 3 (and the digest of
  their records, which ``batch_size=1`` must reproduce);
* ``campaign_stream`` — a streamed, spilled, vectorized
  ``cooling_duqu`` campaign;
* ``paper_pipeline`` — ``full_study`` of both paper case studies plus a
  step-1 SAN Monte Carlo batch of each;

and one campaign on a default ``CampaignConfig``, the path a
``DiversityStudy`` or ``MeasurementPlan`` built without a scenario
takes (scenarios set every campaign field themselves).

A change that does more work fails here: a trajectory cache that stops
hitting, a scenario that falls back from its batch engine, tick elision
switched off, a SAN batch split into one-lane units.  A pure speed
change leaves every count alone.

The same runs also pin ``{span path: call count}``.  That count is what
telemetry costs: a disabled run makes the same ``trace()`` calls, each
one context-variable read, so a span added to a per-tick or per-event
loop fails here whether or not telemetry is on.  And a suite run with an
armed ``RetryPolicy`` and no faults must do exactly the unarmed run's
work, on ``serial`` and on ``thread``.

Each test starts from an empty healthy-trajectory cache, so no count
depends on which test ran before.  ``n_workers=2`` fixes the session
runner's chunking (``exec.chunks``); the serial runners each scenario
unit of ``suite12`` nests default to one worker on every host (before
2.5.1 they took the host's core count, so that count held only on a
2-core host).
"""

from collections import OrderedDict

import pytest

import repro.attacks.campaign as campaign_module
from repro.api import Session
from repro.attacks.campaign import AttackCampaign, CampaignConfig
from repro.attacks.profiles import stuxnet_like
from repro.diversity.catalog import default_catalog
from repro.exec import ExperimentRunner, RetryPolicy
from repro.san.simulator import SANSimulator
from repro.scada.topologies import scope_cooling_topology
from repro.scenarios import SCENARIOS
from repro.telemetry import Telemetry
from tests.test_campaign_trajectory_cache import (
    BUILTIN_SEED3_DIGEST as SUITE_DIGEST,
    records_digest,
)

SEED = 3

SUITE = (
    "cooling_duqu",
    "cooling_flame",
    "cooling_sabotage_physics",
    "cooling_screening_fractional",
    "cooling_screening_full",
    "cooling_screening_pb",
    "cooling_stuxnet",
    "cooling_stuxnet_aggressive",
    "cooling_stuxnet_response",
    "smart_grid_duqu",
    "smart_grid_stuxnet",
    "smoke",
)
PAPER_CASES = ("cooling_stuxnet", "smart_grid_stuxnet")
SAN_REPLICATIONS = 2_000


@pytest.fixture(autouse=True)
def empty_cache(monkeypatch):
    monkeypatch.setattr(campaign_module, "_trajectory_cache", OrderedDict())


def session(**options) -> Session:
    return Session(backend="serial", n_workers=2, **options)


def counters(snapshot):
    return snapshot.metrics["counters"]


def span_counts(snapshot):
    return {
        path: node["count"] for path, node in snapshot.span_paths().items()
    }


SUITE_COUNTERS = {
    "campaign.healthy_ticks_scanned": 744,
    "campaign.replications": 888,
    "campaign.sabotage_resumes": 377,
    "campaign.ticks_elided": 71_875,
    "campaign.ticks_executed": 377,
    "campaign.trajectory_builds": 5,
    "exec.chunks": 54,
    "exec.dispatches": 13,
    "exec.units": 112,
}

_SCENARIO = "session.run/suite.run/exec.map/scenario.execute"
SUITE_SPANS = {
    "session.run": 1,
    "session.run/suite.run": 1,
    "session.run/suite.run/exec.map": 1,
    _SCENARIO: 12,
    f"{_SCENARIO}/exec.map": 12,
    f"{_SCENARIO}/exec.map/measurement.run": 100,
    f"{_SCENARIO}/exec.map/measurement.run/campaign.replication": 888,
}

#: A pool backend runs the scenario units in chunks, one span each.
THREAD_SUITE_SPANS = {
    "session.run/suite.run/exec.map/exec.chunk": 6,
    **{
        path.replace("exec.map/scenario", "exec.map/exec.chunk/scenario"): n
        for path, n in SUITE_SPANS.items()
    },
}

STREAM_COUNTERS = {
    "batch.batches": 40,
    "batch.lane_retirements": 10_000,
    "batch.lanes": 10_000,
    "batch.relax_sweeps": 242,
    "campaign.healthy_ticks_scanned": 160,
    "campaign.trajectory_builds": 1,
    "exec.chunks": 8,
    "exec.dispatches": 1,
    "exec.units": 40,
    "streaming.spills": 3,
}

STREAM_SPANS = {"session.campaign": 1, "session.campaign/exec.map": 1}

STUDY_COUNTERS = {
    "cooling_stuxnet": {
        "campaign.healthy_ticks_scanned": 160,
        "campaign.replications": 80,
        "campaign.sabotage_resumes": 47,
        "campaign.ticks_elided": 7_275,
        "campaign.ticks_executed": 47,
        "campaign.trajectory_builds": 1,
        "exec.chunks": 8,
        "exec.dispatches": 1,
        "exec.units": 8,
    },
    "smart_grid_stuxnet": {
        "campaign.healthy_ticks_scanned": 240,
        "campaign.replications": 80,
        "campaign.sabotage_resumes": 51,
        "campaign.ticks_elided": 9_983,
        "campaign.ticks_executed": 51,
        "campaign.trajectory_builds": 1,
        "exec.chunks": 8,
        "exec.dispatches": 1,
        "exec.units": 8,
    },
}

STUDY_SPANS = {
    "session.full_study": 1,
    "session.full_study/exec.map": 1,
    "session.full_study/exec.map/measurement.run": 8,
    "session.full_study/exec.map/measurement.run/campaign.replication": 80,
}

#: Two 1024-lane units; only the lane steps differ between the SANs.
SAN_COUNTERS = {
    name: {
        "batch.batches": 2,
        "batch.lane_retirements": 2_000,
        "batch.lane_steps": lane_steps,
        "batch.lanes": 2_000,
        "batch.steps": 12,
        "exec.chunks": 2,
        "exec.dispatches": 1,
        "exec.units": 2,
    }
    for name, lane_steps in (
        ("cooling_stuxnet", 8_838),
        ("smart_grid_stuxnet", 8_954),
    )
}

SAN_SPANS = {"exec.map": 1, "exec.map/san.simulate": 2}

DEFAULT_CONFIG_COUNTERS = {
    "campaign.healthy_ticks_scanned": 64,
    "campaign.replications": 50,
    "campaign.sabotage_resumes": 50,
    "campaign.ticks_elided": 1_172,
    "campaign.ticks_executed": 50,
    "campaign.trajectory_builds": 1,
    "exec.chunks": 8,
    "exec.dispatches": 1,
    "exec.units": 50,
}

DEFAULT_CONFIG_SPANS = {"exec.map": 1, "exec.map/campaign.replication": 50}


def test_suite12_counters_and_records():
    assert SCENARIOS.names() == list(SUITE)
    result = session(telemetry=True).run(list(SUITE), seed=SEED)
    assert counters(result.telemetry) == SUITE_COUNTERS
    assert span_counts(result.telemetry) == SUITE_SPANS
    assert records_digest(result) == SUITE_DIGEST


@pytest.mark.parametrize(
    "backend, spans",
    [("serial", SUITE_SPANS), ("thread", THREAD_SUITE_SPANS)],
    ids=["serial", "thread"],
)
def test_suite12_armed_retry_does_no_extra_work(backend, spans):
    result = Session(
        backend=backend,
        n_workers=2,
        telemetry=True,
        retry=RetryPolicy(max_attempts=3, timeout_s=30.0),
    ).run(list(SUITE), seed=SEED)
    assert counters(result.telemetry) == SUITE_COUNTERS
    assert span_counts(result.telemetry) == spans
    assert records_digest(result) == SUITE_DIGEST


def test_suite12_batch_size_1_records_match_scalar():
    result = session().run(list(SUITE), seed=SEED, batch_size=1)
    assert records_digest(result) == SUITE_DIGEST


def test_campaign_stream_counters():
    result = session(telemetry=True).campaign(
        "cooling_duqu",
        10_000,
        seed=SEED,
        batch_size=256,
        max_records_in_ram=3000,
    )
    assert len(result.table.shards) > 1
    counts = dict(counters(result.telemetry))
    # The on-disk size of the .npz shards also depends on the installed
    # NumPy's file format, so only its presence is pinned.
    assert counts.pop("streaming.bytes_spilled") > 0
    assert counts == STREAM_COUNTERS
    assert span_counts(result.telemetry) == STREAM_SPANS


@pytest.mark.parametrize("name", PAPER_CASES)
def test_full_study_counters(name):
    result = session(telemetry=True).full_study(name, seed=SEED)
    assert counters(result.telemetry) == STUDY_COUNTERS[name]
    assert span_counts(result.telemetry) == STUDY_SPANS


@pytest.mark.parametrize("name", PAPER_CASES)
def test_san_batch_counters(name):
    scenario = SCENARIOS.get(name)
    simulator = SANSimulator(scenario.build_san_model(give_up=True))
    telemetry = Telemetry()
    with telemetry.activate():
        simulator.batch(
            scenario.horizon,
            SAN_REPLICATIONS,
            rng=SEED,
            stop=lambda marking: marking["impaired"] > 0,
        )
    snapshot = telemetry.snapshot()
    assert counters(snapshot) == SAN_COUNTERS[name]
    assert span_counts(snapshot) == SAN_SPANS


def test_default_config_campaign_counters():
    campaign = AttackCampaign(
        scope_cooling_topology(),
        default_catalog(),
        stuxnet_like(),
        CampaignConfig(),
    )
    telemetry = Telemetry()
    with telemetry.activate():
        campaign.run_batch(
            50,
            rng=SEED,
            runner=ExperimentRunner(backend="serial", n_workers=2),
        )
    snapshot = telemetry.snapshot()
    assert counters(snapshot) == DEFAULT_CONFIG_COUNTERS
    assert span_counts(snapshot) == DEFAULT_CONFIG_SPANS
