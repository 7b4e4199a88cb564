"""Pinned digests of GSPN simulation output.

``GSPN.simulate`` is deterministic per generator and
``GSPN.transient_analysis`` per root seed, so their exact output can be
pinned.  Each digest hashes, replication by replication, the final
marking, the stop time as ``float.hex`` and the firing log (time as
``float.hex``, transition, marking after).  Any change to the
interpreter that moves one draw or one firing moves a digest; a pure
speed or refactoring change must leave all of them alone.

Cases: a static birth-death net, a mixed net (timed and immediate
transitions, inhibitor arcs, marking-dependent rates) with and without
a stop predicate, and an immediate-priority split, over seeds 0-19,
plus ``transient_analysis`` of the birth-death and mixed nets.
"""

import hashlib

import numpy as np
import pytest

from repro.petri.gspn import GSPN
from repro.petri.net import PetriNet

SEEDS = range(20)


def birth_death():
    net = PetriNet("bd")
    net.add_place("idle", 1)
    net.add_place("busy", 0)
    net.add_transition("arrive", {"idle": 1}, {"busy": 1})
    net.add_transition("finish", {"busy": 1}, {"idle": 1})
    gspn = GSPN(net)
    gspn.add_timed("arrive", 2.0)
    gspn.add_timed("finish", 1.0)
    return gspn


def mixed_net():
    """Timed + immediate + inhibitors + marking-dependent rates."""
    net = PetriNet()
    net.add_place("idle", 5)
    net.add_place("busy", 0)
    net.add_place("done", 0)
    net.add_place("gatep", 1)
    net.add_transition("arrive", {"idle": 1}, {"busy": 1})
    net.add_transition("finish", {"busy": 1}, {"idle": 1})
    net.add_transition(
        "leak", {"busy": 2}, {"done": 1}, inhibitors={"gatep": 1}
    )
    net.add_transition("open", {"gatep": 1}, {})
    net.add_transition("imm_a", {"done": 1}, {"idle": 1})
    net.add_transition("imm_b", {"done": 1}, {"gatep": 1})
    gspn = GSPN(net)
    gspn.add_timed("arrive", lambda m: 1.0 * max(m["idle"], 1))
    gspn.add_timed("finish", lambda m: 2.0 * max(m["busy"], 1))
    gspn.add_timed("leak", 0.5)
    gspn.add_timed("open", 0.2)
    gspn.add_immediate("imm_a", weight=3.0, priority=2)
    gspn.add_immediate("imm_b", weight=1.0, priority=2)
    return gspn


def priority_split():
    net = PetriNet()
    net.add_place("p", 3)
    net.add_place("low", 0)
    net.add_place("high", 0)
    net.add_place("pump", 0)
    net.add_transition("feed", {"pump": 1}, {"p": 1})
    net.add_transition("to_low", {"p": 1}, {"low": 1})
    net.add_transition("to_high", {"p": 1}, {"high": 1})
    gspn = GSPN(net)
    gspn.add_timed("feed", 1.0)
    gspn.add_immediate("to_low", weight=1.0, priority=1)
    gspn.add_immediate("to_high", weight=4.0, priority=1)
    return gspn


def _busy(marking) -> bool:
    return marking["busy"] > 0


def _done(marking) -> bool:
    return marking["done"] > 0


#: ``name: (build, horizon, stop)``
CASES = {
    "birth_death": (birth_death, 200.0, None),
    "mixed": (mixed_net, 40.0, None),
    "mixed_stop": (mixed_net, 40.0, _done),
    "priority_split": (priority_split, 30.0, None),
}


def _marking(marking):
    return sorted(marking.as_dict().items())


def simulate_digest(build, horizon, stop) -> str:
    """SHA-256 over ``simulate`` of a fresh net per seed, in order."""
    digest = hashlib.sha256()
    for seed in SEEDS:
        final, stop_time, log = build().simulate(
            horizon, np.random.default_rng(seed), stop=stop
        )
        digest.update(
            repr(
                (
                    _marking(final),
                    stop_time.hex(),
                    [(t.hex(), name, _marking(m)) for t, name, m in log],
                )
            ).encode()
        )
    return digest.hexdigest()


def transient_digest(result) -> str:
    digest = hashlib.sha256()
    for final, time in zip(result.final_markings, result.completion_times):
        digest.update(repr((_marking(final), time.hex())).encode())
    return digest.hexdigest()


SIMULATE_GOLDEN = {
    "birth_death": (
        "8e23e35361b665672ec1057660269c3e"
        "227a7a601b884a8992386fe87cd7d3e9"
    ),
    "mixed": (
        "41dde6905399bc7bcc826458110fd570"
        "309eb976e4a213f0a3b893ac3265064f"
    ),
    "mixed_stop": (
        "1f2748b460f1e2f625e9093cdf398d7c"
        "08652068c39e4d45ab96b2fb27e833b8"
    ),
    "priority_split": (
        "0177e2cc150c598ec08cbf8dd478c5e3"
        "869593fe0217462b205c51d00399fd4a"
    ),
}

#: ``name: (build, horizon, replications, seed, stop)``
TRANSIENT_CASES = {
    "birth_death": (birth_death, 50.0, 40, 3, _busy),
    "mixed_stop": (mixed_net, 40.0, 200, 7, _done),
}

TRANSIENT_GOLDEN = {
    "birth_death": (
        "48de978cd5b38135bcc08296c00a37f2"
        "bbc88cc4bd2db6b6eb3638ba9eb0b231"
    ),
    "mixed_stop": (
        "ec12b2ec713e47f71287a9f7e29c282f"
        "f4c7f90d3f4e91a2295f39614639bb0e"
    ),
}


@pytest.mark.parametrize("name", list(CASES))
def test_simulate_digest(name):
    assert simulate_digest(*CASES[name]) == SIMULATE_GOLDEN[name]


@pytest.mark.parametrize("name", list(TRANSIENT_CASES))
def test_transient_analysis_digest(name):
    build, horizon, replications, seed, stop = TRANSIENT_CASES[name]
    result = build().transient_analysis(horizon, replications, seed, stop=stop)
    assert len(result.final_markings) == replications
    assert transient_digest(result) == TRANSIENT_GOLDEN[name]
