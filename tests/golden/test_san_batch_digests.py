"""Pinned digests of step-1 SAN Monte Carlo output.

``SANSimulator.batch`` is deterministic per seed on every backend, so
its exact records can be pinned.  Each digest hashes, run by run, the
final marking's ``freeze()``, ``end_time`` as ``float.hex``,
``repr(stop_time)`` and the completions with ``float.hex`` times.  Any
change to the engines that moves one draw or one record field moves a
digest; a pure speed change must leave all of them alone.

Cases: both paper SANs (``build_san_model(give_up=True)``, an
``impaired > 0`` stop) and a chain model with a drop branch and a short
horizon (lanes that die, stop or hit the horizon), each on the default
vectorized path and on ``batch_size=1``.
"""

import hashlib

import pytest

from repro.san.model import SANModel, simple_case
from repro.san.simulator import SANSimulator
from repro.scenarios.registry import SCENARIOS
from repro.stats.distributions import Exponential

REPLICATIONS = 3000
SEED = 0


def _impaired(marking) -> bool:
    return marking["impaired"] > 0


def chain_model(stages: int = 4) -> SANModel:
    """A token walks ``stages`` exponential stages; each completion
    advances it (70%) or drops it (30%)."""
    model = SANModel("chain")
    for i in range(stages):
        model.add_timed_activity(
            f"a{i}",
            distribution=Exponential(1.0 + i),
            input_places={f"s{i}": 1},
            cases=[
                simple_case({f"s{i + 1}": 1}, probability=0.7, label="go"),
                simple_case({"dropped": 1}, probability=0.3, label="drop"),
            ],
        )
    model.set_initial("s0", 1)
    return model


def _paper(name):
    scenario = SCENARIOS.get(name)
    return scenario.build_san_model(give_up=True), scenario.horizon, _impaired


def _chain():
    return chain_model(), 1.5, None


MODELS = {
    "cooling_stuxnet": lambda: _paper("cooling_stuxnet"),
    "smart_grid_stuxnet": lambda: _paper("smart_grid_stuxnet"),
    "chain": _chain,
}


def run_digest(runs) -> str:
    """SHA-256 over every run's exact record, in order."""
    digest = hashlib.sha256()
    for run in runs:
        digest.update(
            repr(
                (
                    run.final_marking.freeze(),
                    run.end_time.hex(),
                    repr(run.stop_time),
                    [(t.hex(), a, l) for t, a, l in run.completions],
                )
            ).encode()
        )
    return digest.hexdigest()


GOLDEN = {
    ("cooling_stuxnet", None): (
        "4374b9f74dbd2c1a9d5cc4648839c6a3"
        "a1ac932cd139d44f571c271c62b5f7b6"
    ),
    ("cooling_stuxnet", 1): (
        "9725d81af27757d251aa67516d09e014"
        "d735cb496a592dc8c31b073e568fa9d7"
    ),
    ("smart_grid_stuxnet", None): (
        "8173a0abe0629bbb7a48df608940227a"
        "f894f0f95fa52f8303aab949cdee665e"
    ),
    ("smart_grid_stuxnet", 1): (
        "fe75ded3bc2236c179a0bb9d49b27fc2"
        "bfecc03644066a7fc37c6a3e4919025f"
    ),
    ("chain", None): (
        "6b519cf182254c79d5ca444b97651bfc"
        "ef201563f25fb2e2d332b6c2e771c4e1"
    ),
    ("chain", 1): (
        "d08b0a182ffa794457f13327d8dcc073"
        "239a9a05fec57a45900b6eb5ae81d417"
    ),
}


@pytest.mark.parametrize(
    "name,batch_size", list(GOLDEN), ids=lambda v: str(v)
)
def test_batch_output_digest(name, batch_size):
    model, horizon, stop = MODELS[name]()
    runs = SANSimulator(model).batch(
        horizon, REPLICATIONS, rng=SEED, stop=stop, batch_size=batch_size
    )
    assert len(runs) == REPLICATIONS
    assert run_digest(runs) == GOLDEN[(name, batch_size)]


def test_chain_covers_every_retirement_kind():
    """The chain case exercises dead, horizon and completed lanes."""
    model, horizon, _ = _chain()
    runs = SANSimulator(model).batch(horizon, REPLICATIONS, rng=SEED)
    dropped = sum(run.final_marking["dropped"] for run in runs)
    finished = sum(run.final_marking["s4"] for run in runs)
    at_horizon = sum(run.end_time == horizon for run in runs)
    assert dropped and finished and at_horizon
