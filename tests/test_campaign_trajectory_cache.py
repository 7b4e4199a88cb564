"""The per-process healthy-trajectory cache of the campaign simulator.

Campaigns whose healthy trajectory reads the same content — plant
factory, tick interval, horizon, snapshot recording — share one
:class:`~repro.attacks.campaign._HealthyTickTrajectory`.  These tests pin
the key (what shares and what never does), the copy-at-build rule that
keeps a shared trajectory immune to in-place config mutation, the LRU
bound, the work counters, and that sharing leaves records bit-identical
on every backend.
"""

import hashlib
import sys
import threading
from collections import OrderedDict
from dataclasses import replace

import numpy as np
import pytest

import repro.attacks.campaign as campaign_module
from repro.api import Session
from repro.attacks.campaign import (
    AttackCampaign,
    CampaignConfig,
    _HealthyTickTrajectory,
)
from repro.exec import ExperimentRunner
from repro.scada.plant.cooling import CoolingPlant
from repro.scada.plant.feeder import PowerFeeder
from repro.scenarios import SCENARIOS
from repro.telemetry import Telemetry


@pytest.fixture(autouse=True)
def empty_cache(monkeypatch):
    """Each test starts from an empty cache and leaves the real one alone."""
    cache = OrderedDict()
    monkeypatch.setattr(campaign_module, "_trajectory_cache", cache)
    return cache


def make_campaign(scenario_name, **config_overrides):
    scenario = SCENARIOS.get(scenario_name)
    config = replace(scenario.build_campaign_config(), **config_overrides)
    return AttackCampaign(
        scenario.build_network(),
        scenario.build_catalog(),
        scenario.build_threat(),
        config,
    )


def trajectory_of(campaign):
    return campaign._healthy_trajectory()


class TestKey:
    def test_same_key_shares_one_object(self, empty_cache):
        first = make_campaign("cooling_stuxnet")
        second = make_campaign("cooling_stuxnet")
        assert first.config is not second.config
        assert trajectory_of(first) is trajectory_of(second)
        assert len(empty_cache) == 1

    def test_diversity_configuration_is_not_part_of_the_key(self):
        # A DoE study varies only the installed variants between runs.
        scenario = SCENARIOS.get("cooling_stuxnet")
        baseline = make_campaign("cooling_stuxnet")
        network = scenario.build_network()
        network.host("office_0").resilient = True
        diversified = AttackCampaign(
            network,
            scenario.build_catalog(),
            scenario.build_threat(),
            scenario.build_campaign_config(),
        )
        assert trajectory_of(diversified) is trajectory_of(baseline)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"horizon": 123.0},
            {"tick_interval": 0.3},
            {"plant_factory": PowerFeeder},
        ],
        ids=["horizon", "tick_interval", "plant"],
    )
    def test_different_content_never_shares(self, overrides):
        base = make_campaign("cooling_stuxnet")
        other = make_campaign("cooling_stuxnet", **overrides)
        assert trajectory_of(base) is not trajectory_of(other)

    def test_equal_factories_share_distinct_ones_do_not(self):
        def cooling():
            return CoolingPlant(record_history=False)

        a = make_campaign("cooling_stuxnet", plant_factory=cooling)
        b = make_campaign("cooling_stuxnet", plant_factory=cooling)
        c = make_campaign(
            "cooling_stuxnet",
            plant_factory=lambda: CoolingPlant(record_history=False),
        )
        assert trajectory_of(a) is trajectory_of(b)
        assert trajectory_of(a) is not trajectory_of(c)

    def test_impair_and_non_impair_goals_never_share(self):
        # Only impair-goal campaigns record per-tick snapshots.
        impair = make_campaign("cooling_stuxnet")
        exfil = make_campaign(
            "cooling_duqu", horizon=impair.config.horizon,
            tick_interval=impair.config.tick_interval,
        )
        assert impair.threat.goal == "impair"
        assert exfil.threat.goal != "impair"
        assert impair.config.plant_factory is exfil.config.plant_factory
        assert trajectory_of(impair) is not trajectory_of(exfil)
        assert trajectory_of(impair).record_snapshots
        assert not trajectory_of(exfil).record_snapshots

    def test_tick_interval_type_is_part_of_the_key(self):
        # Tick times accumulate in the interval's type.
        native = make_campaign("smoke", tick_interval=0.25)
        numpy_scalar = make_campaign("smoke", tick_interval=np.float64(0.25))
        assert trajectory_of(native) is not trajectory_of(numpy_scalar)

    def test_unhashable_factory_builds_uncached(self, empty_cache):
        class Factory:
            __hash__ = None

            def __call__(self):
                return CoolingPlant(record_history=False)

        a = make_campaign("smoke", plant_factory=Factory())
        b = make_campaign("smoke", plant_factory=a.config.plant_factory)
        assert trajectory_of(a) is not trajectory_of(b)
        assert not empty_cache

    def test_invalidate_tables_rekeys_from_current_config(self):
        campaign = make_campaign("smoke")
        old = trajectory_of(campaign)
        campaign.config.horizon = campaign.config.horizon / 2
        campaign.invalidate_tables()
        new = trajectory_of(campaign)
        assert new is not old
        assert new.horizon == campaign.config.horizon
        # The old entry stays cached for campaigns still on that key.
        assert trajectory_of(make_campaign("smoke")) is old


class TestCopyAtBuild:
    def test_in_place_config_mutation_leaves_shared_trajectory(self):
        first = make_campaign("cooling_stuxnet")
        second = make_campaign("cooling_stuxnet")
        shared = trajectory_of(first)
        shared.scan_to(10)
        reference = _HealthyTickTrajectory(
            make_campaign("cooling_stuxnet").config, record_snapshots=True
        )

        first.config.tick_interval = 1.0
        first.config.horizon = 10.0
        assert trajectory_of(second) is shared
        shared.scan_to(200)
        reference.scan_to(200)
        assert shared.times == reference.times
        assert shared.n_ticks == reference.n_ticks
        assert shared.readings[1:] == reference.readings[1:]
        assert [
            (plant.time, registers, damage)
            for plant, registers, damage in shared.snapshots
        ] == [
            (plant.time, registers, damage)
            for plant, registers, damage in reference.snapshots
        ]
        assert shared.first_finding == reference.first_finding

    def test_trajectory_holds_no_config(self):
        trajectory = trajectory_of(make_campaign("smoke"))
        assert not any(
            isinstance(value, CampaignConfig)
            for value in vars(trajectory).values()
        )


class TestLRUBound:
    def test_oldest_entry_is_evicted(self, monkeypatch, empty_cache):
        monkeypatch.setattr(campaign_module, "_TRAJECTORY_CACHE_SIZE", 2)
        a = trajectory_of(make_campaign("smoke", horizon=10.0))
        b = trajectory_of(make_campaign("smoke", horizon=20.0))
        # Touching ``a`` makes ``b`` the least recently used entry.
        assert trajectory_of(make_campaign("smoke", horizon=10.0)) is a
        c = trajectory_of(make_campaign("smoke", horizon=30.0))
        assert len(empty_cache) == 2
        assert set(map(id, empty_cache.values())) == {id(a), id(c)}
        assert trajectory_of(make_campaign("smoke", horizon=10.0)) is a
        assert trajectory_of(make_campaign("smoke", horizon=20.0)) is not b


class TestCounters:
    def test_same_key_campaigns_build_once(self):
        telemetry = Telemetry()
        with telemetry.activate():
            for seed in range(2):
                campaign = make_campaign("cooling_stuxnet")
                campaign.run(np.random.default_rng(seed))
        metrics = telemetry.metrics
        assert metrics.counter("campaign.trajectory_builds") == 1.0
        trajectory = trajectory_of(make_campaign("cooling_stuxnet"))
        assert (
            metrics.counter("campaign.healthy_ticks_scanned")
            == trajectory.scanned
        )

    def test_counters_silent_without_telemetry(self):
        make_campaign("smoke").run(np.random.default_rng(0))
        telemetry = Telemetry()
        with telemetry.activate():
            make_campaign("smoke").run(np.random.default_rng(0))
        # The cache was warmed outside telemetry: nothing built or
        # scanned inside it.
        assert telemetry.metrics.counter("campaign.trajectory_builds") == 0.0


class TestConcurrency:
    def test_racing_lookups_and_scans_share_one_build_per_key(self):
        # More threads than cores, switching as often as possible: a
        # lost insert would hand two threads different trajectories or
        # count a build twice; a lost scan would desynchronize the
        # per-tick lists.
        horizons = (10.0, 20.0)
        n_threads = 8
        got = [None] * n_threads
        builds = [0.0] * n_threads
        barrier = threading.Barrier(n_threads)

        def worker(index):
            telemetry = Telemetry()
            campaign = make_campaign(
                "cooling_stuxnet", horizon=horizons[index % 2]
            )
            barrier.wait(timeout=30)
            with telemetry.activate():
                trajectory = campaign._healthy_trajectory()
                for k in range(1, trajectory.n_ticks + 1, 7):
                    trajectory.scan_to(k)
            got[index] = trajectory
            builds[index] = telemetry.metrics.counter(
                "campaign.trajectory_builds"
            )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(i,))
                for i in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sum(builds) == len(horizons)
        for parity in range(2):
            shared = got[parity]
            assert all(t is shared for t in got[parity::2])
            assert len(shared.readings) == shared.scanned + 1
            assert len(shared.snapshots) == shared.scanned + 1
        assert got[0] is not got[1]


class TestBackends:
    def test_thread_backend_over_one_trajectory_matches_serial(
        self, monkeypatch
    ):
        serial = make_campaign("cooling_stuxnet").run_batch_table(24, rng=5)
        monkeypatch.setattr(
            campaign_module, "_trajectory_cache", OrderedDict()
        )
        first = make_campaign("cooling_stuxnet")
        second = make_campaign("cooling_stuxnet")
        runner = ExperimentRunner("thread", n_workers=4, chunk_size=1)
        threaded = first.run_batch_table(24, rng=5, runner=runner)
        assert trajectory_of(second) is trajectory_of(first)
        assert threaded == serial
        assert second.run_batch_table(24, rng=5, runner=runner) == serial

    def test_thread_suite_matches_serial(self, monkeypatch):
        names = ["cooling_duqu", "cooling_flame", "smoke"]
        serial = Session().run(names, seed=4).records_by_scenario()
        monkeypatch.setattr(
            campaign_module, "_trajectory_cache", OrderedDict()
        )
        threaded = Session(backend="thread", n_workers=3).run(names, seed=4)
        assert threaded.records_by_scenario() == serial


def records_digest(result):
    """SHA-256 over every scenario's record table, column by column."""
    outer = hashlib.sha256()
    for item in result.results:
        table = item.table
        outer.update(f"{item.scenario.name}|{len(table)}".encode())
        for name in table.columns:
            column = table.column(name)
            outer.update(f"|{name}:{column.dtype.str}:".encode())
            if column.dtype.kind == "O":
                for value in column.tolist():
                    outer.update(repr(value).encode() + b"\x00")
            else:
                outer.update(column.tobytes())
    return outer.hexdigest()


#: ``records_digest`` of all 12 built-ins at seed 3, generated before the
#: trajectory cache existed (each campaign then built its own trajectory).
BUILTIN_SEED3_DIGEST = (
    "2c9b96fbf00fca76b6222e2e97b960b80d7e95bbaa440b0d03fe7ab4c18db6fe"
)


@pytest.mark.scenario
def test_builtin_records_digest_pinned():
    names = SCENARIOS.names()
    assert len(names) == 12
    result = Session().run(names, seed=3)
    assert records_digest(result) == BUILTIN_SEED3_DIGEST
