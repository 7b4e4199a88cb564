"""Mega-batch Monte-Carlo benchmarks: SoA batch vs scalar loops.

The batch lowerings (`repro.san.batched`, `repro.attacks.batched`)
advance thousands of replications per vectorized step instead of one
replication per Python event loop.  Two scalar/vectorized pairs time
that on reference workloads:

* ``perf_san_batch_scalar`` vs ``perf_san_batch_vectorized`` — 4096
  replications of a five-stage lockstep SAN pipeline, run one at a
  time on the compiled scalar engine vs as one 4096-lane SoA batch.
* ``perf_campaign_batch_scalar`` vs ``perf_campaign_batch_vectorized``
  — a 2048-replication ``run_batch_table`` on the ``cooling_duqu``
  scenario (exfiltration goal, the vectorizable campaign lowering)
  scalar vs ``batch_size=2048``.

Each pair also checks that the batch and scalar runs agree
(``test_san_batch_modes_agree``, ``test_campaign_batch_modes_agree``),
which ``scripts/ci.sh`` runs with timing disabled.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks.campaign import AttackCampaign
from repro.san.model import SANModel, simple_case
from repro.san.simulator import SANSimulator
from repro.scenarios.registry import SCENARIOS
from repro.stats.distributions import Exponential

_SAN_REPS = 4096
_SAN_STAGES = 5
_SAN_HORIZON = 1e9
_CAMPAIGN_SCENARIO = "cooling_duqu"
_CAMPAIGN_REPS = 2048
_SEED = 99


def _pipeline_model() -> SANModel:
    """A lockstep pipeline: every lane fires the same activity sequence,
    so the batch engine's fast path stays fully utilized while each
    firing still draws a delay and resolves a 60/40 case."""
    model = SANModel("bench_pipeline")
    for i in range(_SAN_STAGES):
        model.add_timed_activity(
            f"a{i}",
            distribution=Exponential(1.0),
            input_places={f"s{i}": 1},
            cases=[
                simple_case({f"s{i + 1}": 1}, probability=0.6, label="hi"),
                simple_case({f"s{i + 1}": 1}, probability=0.4, label="lo"),
            ],
        )
    model.set_initial("s0", 1)
    return model


@pytest.fixture(scope="module", name="san_simulator")
def san_simulator_fixture():
    simulator = SANSimulator(_pipeline_model())
    simulator.model.compile()  # warm the compiled artifact
    return simulator


@pytest.fixture(scope="module", name="duqu_campaign")
def duqu_campaign_fixture():
    scenario = SCENARIOS.get(_CAMPAIGN_SCENARIO)
    return AttackCampaign(
        scenario.build_network(),
        scenario.build_catalog(),
        scenario.build_threat(),
        scenario.build_campaign_config(),
    )


def test_perf_san_batch_scalar(benchmark, san_simulator):
    """One-replication-at-a-time compiled scalar engine."""
    runs = benchmark(
        san_simulator.batch, _SAN_HORIZON, _SAN_REPS, _SEED, batch_size=1
    )
    assert len(runs) == _SAN_REPS


def test_perf_san_batch_vectorized(benchmark, san_simulator):
    """The same replications as one SoA mega-batch."""
    runs = benchmark(
        san_simulator.batch,
        _SAN_HORIZON,
        _SAN_REPS,
        _SEED,
        batch_size=_SAN_REPS,
    )
    assert len(runs) == _SAN_REPS


def test_san_batch_modes_agree(san_simulator):
    """The two benchmarked paths sample the same distribution."""
    n = 512
    scalar = san_simulator.batch(_SAN_HORIZON, n, _SEED, batch_size=1)
    batched = san_simulator.batch(
        _SAN_HORIZON, n, _SEED, batch_size=n
    )
    terminal = f"s{_SAN_STAGES}"
    reach = [
        np.mean([r.final_marking.as_dict().get(terminal, 0) for r in runs])
        for runs in (scalar, batched)
    ]
    assert reach[0] == reach[1] == 1.0  # both cases advance the token
    means = [
        np.mean([r.end_time for r in runs]) for runs in (scalar, batched)
    ]
    assert abs(means[0] - means[1]) < 0.5


def test_perf_campaign_batch_scalar(benchmark, duqu_campaign):
    """Scalar per-replication campaign event loops."""
    table = benchmark(duqu_campaign.run_batch_table, _CAMPAIGN_REPS, _SEED)
    assert len(table) == _CAMPAIGN_REPS


def test_perf_campaign_batch_vectorized(benchmark, duqu_campaign):
    """The same batch through the vectorized campaign lowering."""
    table = benchmark(
        duqu_campaign.run_batch_table,
        _CAMPAIGN_REPS,
        _SEED,
        batch_size=_CAMPAIGN_REPS,
    )
    assert len(table) == _CAMPAIGN_REPS


def test_campaign_batch_modes_agree(duqu_campaign):
    """Success rate parity between the benchmarked paths."""
    n = 1024
    scalar = duqu_campaign.run_batch_table(n, _SEED)
    batched = duqu_campaign.run_batch_table(n, _SEED, batch_size=n)
    p_scalar = float(np.asarray(scalar.column("success")).mean())
    p_batched = float(np.asarray(batched.column("success")).mean())
    assert abs(p_scalar - p_batched) < 0.08
