"""One seeding contract for the step-1 Monte Carlo estimators.

``SANSimulator.batch(batch_size=1)``, ``RewardEstimator.estimate`` and
``GSPN.transient_analysis`` give replication ``i`` its own generator,
seeded from child ``i`` of the root ``SeedSequence`` derived from
``rng`` — the streams ``ExperimentRunner.run_replications`` hands out.
(The default ``SANSimulator.batch`` gives each unit of
``DEFAULT_BATCH_SIZE`` lanes one such child.)  A passed ``Generator``
only derives that root, with one draw.

The estimates must not move against the shared-generator loops these
methods used to run (kept here as test-local references): KS tests on
completion times and rate rewards, two-proportion z tests on completion
probabilities.
"""

import copy
import math

import numpy as np
import pytest

from repro.exec import ExperimentRunner, as_seed_sequence
from repro.petri.gspn import GSPN
from repro.san import rewards as rewards_module
from repro.san.rewards import ImpulseReward, RateReward, RewardEstimator
from repro.san.simulator import SANSimulator
from tests.test_petri_gspn import make_birth_death
from tests.test_san_ctmc_rewards import two_stage_model

#: Mean time to ``s2`` is 1/0.8 + 1/0.3 ≈ 4.6, so about half the runs
#: reach it within the horizon.
HORIZON = 5.0
N = 3000


def _reached_s2(marking):
    return marking["s2"] > 0


def _busy(marking):
    return marking["busy"] > 0


def _children(seed, count):
    """NumPy's own per-replication generators for ``seed``."""
    return [
        np.random.default_rng(child)
        for child in np.random.SeedSequence(seed).spawn(count)
    ]


def _run_key(run):
    return repr((run.final_marking, run.end_time, run.stop_time,
                 run.completions))


def _gspn_key(result):
    return repr((result.final_markings, result.completion_times))


def _estimate_key(estimates):
    return repr({name: est.samples for name, est in estimates.items()})


def _gspn():
    gspn = GSPN(make_birth_death())
    gspn.add_timed("arrive", 0.5)
    gspn.add_timed("finish", 1.0)
    return gspn


def _estimator():
    return RewardEstimator(
        two_stage_model(),
        rate_rewards=[RateReward("in_s0", rate=lambda m: float(m["s0"]))],
        impulse_rewards=[ImpulseReward("a2_done", activity="a2")],
    )


def _times(values):
    return [t for t in values if not math.isnan(t)]


def _assert_proportions_agree(hits_a, hits_b, n):
    pooled = (hits_a + hits_b) / (2 * n)
    assert 0.0 < pooled < 1.0
    se = math.sqrt(2 * pooled * (1 - pooled) / n)
    assert abs(hits_a - hits_b) / n < 4.0 * se


def _assert_same_distribution(sample, reference):
    from scipy.stats import ks_2samp

    assert ks_2samp(sample, reference).pvalue > 1e-3


# ---- the estimates did not move ---------------------------------------------


class TestAgreementWithSharedGeneratorLoops:
    def test_san_batch(self):
        sim = SANSimulator(two_stage_model())
        runs = sim.batch(HORIZON, N, 101, stop=_reached_s2)
        shared = np.random.default_rng(202)
        reference = [
            sim.simulate(HORIZON, shared, stop=_reached_s2) for _ in range(N)
        ]
        new = _times(r.stop_time for r in runs)
        old = _times(r.stop_time for r in reference)
        _assert_proportions_agree(len(new), len(old), N)
        _assert_same_distribution(new, old)

    def test_reward_estimator(self, monkeypatch):
        estimates = _estimator().estimate(HORIZON, N, 101, stop=_reached_s2)
        # The pre-2.2 loop: the same body, one generator for every
        # replication.
        monkeypatch.setattr(
            rewards_module,
            "replication_generators",
            lambda rng, count: [rng] * count,
        )
        reference = _estimator().estimate(
            HORIZON, N, np.random.default_rng(202), stop=_reached_s2
        )
        _assert_same_distribution(
            estimates["in_s0"].samples, reference["in_s0"].samples
        )
        _assert_proportions_agree(
            sum(s > 0 for s in estimates["a2_done"].samples),
            sum(s > 0 for s in reference["a2_done"].samples),
            N,
        )

    def test_gspn_transient_analysis(self):
        gspn = _gspn()
        result = gspn.transient_analysis(2.0, N, 101, stop=_busy)
        shared = np.random.default_rng(202)
        reference = [
            gspn.simulate(2.0, shared, stop=_busy)[1] for _ in range(N)
        ]
        new = _times(result.completion_times)
        old = _times(reference)
        _assert_proportions_agree(len(new), len(old), N)
        _assert_same_distribution(new, old)


# ---- one spawned stream per replication -------------------------------------


class TestPerReplicationStreams:
    def test_san_batch_replication_i_uses_child_i(self):
        sim = SANSimulator(two_stage_model())
        runs = sim.batch(HORIZON, 6, 7, stop=_reached_s2, batch_size=1)
        expected = [
            sim.simulate(HORIZON, g, stop=_reached_s2)
            for g in _children(7, 6)
        ]
        assert list(map(_run_key, runs)) == list(map(_run_key, expected))

    def test_gspn_replication_i_uses_child_i(self):
        gspn = _gspn()
        result = gspn.transient_analysis(20.0, 6, 7)
        expected = [gspn.simulate(20.0, g) for g in _children(7, 6)]
        assert repr(result.final_markings) == repr(
            [final for final, _, _ in expected]
        )

    def test_estimator_uses_the_san_batch_streams(self):
        estimator = RewardEstimator(
            two_stage_model(),
            rate_rewards=[RateReward("clock", rate=lambda m: 1.0)],
            impulse_rewards=[ImpulseReward("a1_done", activity="a1")],
        )
        estimates = estimator.estimate(HORIZON, 8, 7, stop=_reached_s2)
        runs = SANSimulator(two_stage_model()).batch(
            HORIZON, 8, 7, stop=_reached_s2, batch_size=1
        )
        assert estimates["clock"].samples == pytest.approx(
            [r.end_time for r in runs]
        )
        assert estimates["a1_done"].samples == [
            sum(activity == "a1" for _, activity, _ in r.completions)
            for r in runs
        ]


# ---- a Generator derives the root seed with one draw ------------------------


def _san_batch(rng):
    runs = SANSimulator(two_stage_model()).batch(
        HORIZON, 5, rng, stop=_reached_s2
    )
    return list(map(_run_key, runs))


def _estimate(rng):
    return _estimate_key(_estimator().estimate(HORIZON, 5, rng))


def _transient(rng):
    return _gspn_key(_gspn().transient_analysis(HORIZON, 5, rng))


@pytest.mark.parametrize(
    "method", [_san_batch, _estimate, _transient],
    ids=["san_batch", "estimate", "transient_analysis"],
)
class TestGeneratorSeeds:
    def test_generator_derives_its_root_with_one_draw(self, method):
        rng = np.random.default_rng(31)
        twin = copy.deepcopy(rng)
        one_draw = copy.deepcopy(rng)
        one_draw.integers(0, 2**63 - 1)
        assert method(rng) == method(as_seed_sequence(twin))
        assert rng.bit_generator.state == one_draw.bit_generator.state


class TestBackendInvariance:
    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_generator_batch_matches_runner(self, backend):
        sim = SANSimulator(two_stage_model())
        default = sim.batch(
            HORIZON, 8, np.random.default_rng(3), stop=_reached_s2
        )
        on_runner = sim.batch(
            HORIZON,
            8,
            np.random.default_rng(3),
            stop=_reached_s2,
            runner=ExperimentRunner(backend, n_workers=2),
        )
        assert list(map(_run_key, on_runner)) == list(map(_run_key, default))
