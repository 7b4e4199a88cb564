"""Monte-Carlo transient analysis of GSPNs over independent replications.

``GSPN.transient_analysis`` is the many-replications path for Petri
nets: replication ``i`` runs ``GSPN.simulate`` on child ``i`` of the
root seed, whatever the net holds (immediate transitions,
marking-dependent rates, a ``stop`` predicate).  There is no separate
batch engine for GSPNs; ``repro.petri.batched`` is gone.
"""

import importlib
import math

import numpy as np
import pytest

from repro.exec import replication_generators
from repro.petri.gspn import GSPN, GSPNResult
from repro.petri.net import PetriNet


def birth_death(servers: int = 3) -> GSPN:
    net = PetriNet("bd")
    net.add_place("idle", tokens=servers)
    net.add_place("busy")
    net.add_transition("start", inputs={"idle": 1}, outputs={"busy": 1})
    net.add_transition("done", inputs={"busy": 1}, outputs={"idle": 1})
    gspn = GSPN(net)
    gspn.add_timed("start", 2.0)
    gspn.add_timed("done", 1.0)
    return gspn


def with_immediate() -> GSPN:
    net = PetriNet("imm")
    net.add_place("a", tokens=1)
    net.add_place("b")
    net.add_place("c")
    net.add_transition("t", inputs={"a": 1}, outputs={"b": 1})
    net.add_transition("i", inputs={"b": 1}, outputs={"c": 1})
    gspn = GSPN(net)
    gspn.add_timed("t", 1.0)
    gspn.add_immediate("i")
    return gspn


def marking_dependent() -> GSPN:
    net = PetriNet("md")
    net.add_place("p", tokens=2)
    net.add_place("q")
    net.add_transition("t", inputs={"p": 1}, outputs={"q": 1})
    gspn = GSPN(net)
    gspn.add_timed("t", lambda marking: 1.0 + marking["p"])
    return gspn


def assert_matches_simulate(gspn, horizon, replications, seed, stop=None):
    """Replication ``i`` equals ``simulate`` on child ``i`` of ``seed``."""
    result = gspn.transient_analysis(horizon, replications, seed, stop=stop)
    assert isinstance(result, GSPNResult)
    assert result.horizon == horizon
    reference = [
        gspn.simulate(horizon, generator, stop=stop)
        for generator in replication_generators(seed, replications)
    ]
    assert result.final_markings == [final for final, _, _ in reference]
    assert repr(result.completion_times) == repr(
        [stop_time for _, stop_time, _ in reference]
    )
    return result


class TestReplicationStreams:
    def test_timed_net_matches_simulate_per_replication(self):
        result = assert_matches_simulate(birth_death(), 10.0, 20, seed=5)
        assert all(math.isnan(t) for t in result.completion_times)

    def test_immediate_transitions_match_simulate(self):
        result = assert_matches_simulate(with_immediate(), 5.0, 6, seed=4)
        assert all(
            marking.as_dict() == {"c": 1} for marking in result.final_markings
        )

    def test_marking_dependent_rates_match_simulate(self):
        result = assert_matches_simulate(marking_dependent(), 5.0, 8, seed=0)
        for marking in result.final_markings:
            assert marking["p"] + marking["q"] == 2

    def test_stop_predicate_times_match_simulate(self):
        def stop(marking):
            return marking["busy"] >= 2

        result = assert_matches_simulate(birth_death(), 10.0, 12, 9, stop)
        assert any(t == t for t in result.completion_times)
        for marking, stop_time in zip(
            result.final_markings, result.completion_times
        ):
            if stop_time == stop_time:
                assert marking["busy"] >= 2

    def test_undeclared_transition_rejected(self):
        net = PetriNet("u")
        net.add_place("p", tokens=1)
        net.add_transition("t", inputs={"p": 1})
        with pytest.raises(
            ValueError, match=r"transitions without timing declaration"
        ):
            GSPN(net).transient_analysis(1.0, 2, 0)


class TestDistributionalIdentity:
    def test_mean_busy_tokens_matches_one_stream_simulation(self):
        """Spawned per-replication streams and one shared stream sample
        the same transient distribution."""
        gspn = birth_death()
        n = 400
        spawned = gspn.transient_analysis(8.0, n, 11)
        rng = np.random.default_rng(12)
        shared = [gspn.simulate(8.0, rng)[0] for _ in range(n)]
        mean_spawned = np.mean([m["busy"] for m in spawned.final_markings])
        mean_shared = np.mean([m["busy"] for m in shared])
        # M/M/3-ish stationary mean; both estimates share it.
        assert abs(mean_spawned - mean_shared) < 0.25


def test_batch_engine_module_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.petri.batched")
