"""Pinned exact CTMC solutions of the paper SANs.

``san_to_ctmc`` of a paper case study's SAN (``give_up=True``) is an
explicit-state chain, and its transient distribution at the scenario
horizon is the exact value the step-1 Monte Carlo estimates.  Both are
deterministic, so they are pinned: the impaired probability mass at the
horizon as ``float.hex``, and a digest of the state space and the whole
transient distribution.  A change to the SAN builder, the CTMC
expansion or the transient solver that moves one state or one bit of
probability moves a value here.
"""

import hashlib

import pytest

from repro.san.ctmc import san_to_ctmc
from repro.scenarios.registry import SCENARIOS

PAPER_CASES = ("cooling_stuxnet", "smart_grid_stuxnet")


def solve(name):
    """``(ctmc, distribution at the horizon)`` of one paper SAN."""
    scenario = SCENARIOS.get(name)
    ctmc = san_to_ctmc(scenario.build_san_model(give_up=True))
    return ctmc, ctmc.transient_distribution(scenario.horizon)


def impaired_mass(ctmc, distribution) -> float:
    return float(
        sum(
            distribution[index]
            for index, state in enumerate(ctmc.states)
            if dict(state).get("impaired")
        )
    )


def distribution_digest(ctmc, distribution) -> str:
    digest = hashlib.sha256(repr(ctmc.states).encode())
    digest.update(distribution.tobytes())
    return digest.hexdigest()


#: ``name: (impaired mass as float.hex, distribution digest)``; the
#: masses are 0.3859314203173337 and 0.4025300567706745 (7 states each).
GOLDEN = {
    "cooling_stuxnet": (
        "0x1.8b319b330c0f9p-2",
        "e0244a587572fac3da9ff45a73f82a3c"
        "639876dfc172988fe4eda7d9784c8bb8",
    ),
    "smart_grid_stuxnet": (
        "0x1.9c30d6d5f2c29p-2",
        "69699ce64ccd537bb01469c96e8c9039"
        "a21410d6b1280958af5fa4e421047fba",
    ),
}


@pytest.mark.parametrize("name", PAPER_CASES)
def test_exact_solution_at_horizon(name):
    ctmc, distribution = solve(name)
    assert (
        impaired_mass(ctmc, distribution).hex(),
        distribution_digest(ctmc, distribution),
    ) == GOLDEN[name]
