"""Pinned digests of GSPN simulation output.

``GSPN.simulate`` is deterministic per generator and
``GSPN.transient_analysis`` per root seed, so their exact output can be
pinned.  Each digest hashes, replication by replication, the final
marking, the stop time as ``float.hex`` and the firing log (time as
``float.hex``, transition, marking after).  Any change to the
interpreter that moves one draw or one firing moves a digest; a pure
speed change must leave all of them alone.

Cases: the nets the interpreter equivalence suite exercises — a static
birth-death net, a mixed net (timed and immediate transitions,
inhibitor arcs, marking-dependent rates) with and without a stop
predicate, and an immediate-priority split — over seeds 0-19, plus
``transient_analysis`` of the birth-death and mixed nets.
"""

import hashlib
from functools import partial

import numpy as np
import pytest

import tests.test_petri_gspn_compiled as compiled_oracle

SEEDS = range(20)


#: The oracle suite's builders, on the default (compiled) interpreter.
birth_death = partial(compiled_oracle.birth_death, True)
mixed_net = partial(compiled_oracle.mixed_net, True)
priority_split = partial(compiled_oracle.priority_split, True)


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
