"""Tests for SAN CTMC conversion and reward estimation."""

import numpy as np
import pytest

from repro.san.builder import SANBuilder
from repro.san.ctmc import san_to_ctmc
from repro.san.model import SANModel
from repro.san.rewards import ImpulseReward, RateReward, RewardEstimator
from repro.san.simulator import SANSimulator
from repro.stats.distributions import Deterministic, Exponential


def two_stage_model(p1=0.8, p2=0.6, r1=1.0, r2=0.5):
    builder = SANBuilder("chain")
    builder.place("s0", 1).place("s1", 0).place("s2", 0)
    builder.stage("a1", "s0", "s1", rate=r1, success_probability=p1)
    builder.stage("a2", "s1", "s2", rate=r2, success_probability=p2)
    return builder.build()


class TestCTMCConversion:
    def test_state_count(self):
        ctmc = san_to_ctmc(two_stage_model())
        assert ctmc.n_states == 3

    def test_generator_rows_sum_to_zero(self):
        ctmc = san_to_ctmc(two_stage_model())
        assert np.allclose(ctmc.generator.sum(axis=1), 0.0)

    def test_initial_distribution_sums_to_one(self):
        ctmc = san_to_ctmc(two_stage_model())
        assert ctmc.initial.sum() == pytest.approx(1.0)

    def test_transient_distribution_is_probability_vector(self):
        ctmc = san_to_ctmc(two_stage_model())
        dist = ctmc.transient_distribution(2.5)
        assert dist.sum() == pytest.approx(1.0)
        assert (dist >= -1e-12).all()

    def test_retry_chain_hits_goal_almost_surely(self):
        ctmc = san_to_ctmc(two_stage_model())
        targets = [
            i for i, s in enumerate(ctmc.states) if dict(s).get("s2", 0) > 0
        ]
        probs = ctmc.hitting_probability(targets)
        start = int(np.argmax(ctmc.initial))
        assert probs[start] == pytest.approx(1.0)

    def test_mean_hitting_time_matches_closed_form(self):
        # Retry-on-failure: stage i takes Exp(rate_i * p_i) overall.
        ctmc = san_to_ctmc(two_stage_model(p1=0.8, p2=0.6, r1=1.0, r2=0.5))
        targets = [
            i for i, s in enumerate(ctmc.states) if dict(s).get("s2", 0) > 0
        ]
        times = ctmc.mean_hitting_time(targets)
        start = int(np.argmax(ctmc.initial))
        expected = 1.0 / (1.0 * 0.8) + 1.0 / (0.5 * 0.6)
        assert times[start] == pytest.approx(expected, rel=1e-9)

    def test_simulator_agrees_with_ctmc(self):
        model = two_stage_model()
        ctmc = san_to_ctmc(model)
        targets = [
            i for i, s in enumerate(ctmc.states) if dict(s).get("s2", 0) > 0
        ]
        analytic = ctmc.mean_hitting_time(targets)[int(np.argmax(ctmc.initial))]
        sim = SANSimulator(model)
        rng = np.random.default_rng(3)
        runs = sim.batch(10000.0, 2000, rng, stop=lambda m: m["s2"] > 0)
        sampled = np.mean([r.stop_time for r in runs if r.stopped])
        assert sampled == pytest.approx(analytic, rel=0.1)

    def test_give_up_chain_success_probability(self):
        # With give-up semantics, P(success) = p1 * p2 exactly.
        builder = SANBuilder()
        builder.place("s0", 1).place("s1", 0).place("s2", 0)
        builder.place("dead", 0)
        builder.stage("a1", "s0", "s1", rate=1.0, success_probability=0.7,
                      failure_place="dead")
        builder.stage("a2", "s1", "s2", rate=1.0, success_probability=0.4,
                      failure_place="dead")
        ctmc = san_to_ctmc(builder.build())
        targets = [
            i for i, s in enumerate(ctmc.states) if dict(s).get("s2", 0) > 0
        ]
        start = int(np.argmax(ctmc.initial))
        assert ctmc.hitting_probability(targets)[start] == pytest.approx(0.28)

    def test_non_exponential_rejected(self):
        model = SANModel()
        model.set_initial("a", 1)
        model.add_timed_activity(
            "det", Deterministic(1.0), input_places={"a": 1},
            output_places={"b": 1},
        )
        with pytest.raises(ValueError):
            san_to_ctmc(model)

    def test_instantaneous_activities_eliminated(self):
        model = SANModel()
        model.set_initial("a", 1)
        model.add_timed_activity(
            "t", Exponential(1.0), input_places={"a": 1},
            output_places={"vanish": 1},
        )
        model.add_instantaneous_activity(
            "jump", input_places={"vanish": 1}, output_places={"b": 1}
        )
        ctmc = san_to_ctmc(model)
        # 'vanish' must not appear in any tangible state.
        for state in ctmc.states:
            assert dict(state).get("vanish", 0) == 0

    def test_state_cap_enforced(self):
        builder = SANBuilder()
        builder.place("p", 1)
        builder.timed("grow", Exponential(1.0), inputs={"p": 1},
                      outputs={"p": 2})
        with pytest.raises(ValueError):
            san_to_ctmc(builder.build(), max_states=5)

    def test_state_index_lookup(self):
        ctmc = san_to_ctmc(two_stage_model())
        assert ctmc.state_index(ctmc.states[0]) == 0
        with pytest.raises(KeyError):
            ctmc.state_index((("nope", 1),))


class TestRewards:
    def test_impulse_reward_counts_completions(self, rng):
        model = two_stage_model(p1=1.0, p2=1.0)
        estimator = RewardEstimator(
            model,
            impulse_rewards=[ImpulseReward("steps", activity="a1")],
        )
        estimates = estimator.estimate(1000.0, 50, rng)
        assert np.mean(estimates["steps"].samples) == pytest.approx(1.0)

    def test_rate_reward_integrates_occupancy(self, rng):
        # Time spent in s0 before a1 completes: mean 1.0 at rate 1.0.
        model = two_stage_model(p1=1.0, p2=1.0, r1=1.0, r2=1.0)
        estimator = RewardEstimator(
            model,
            rate_rewards=[RateReward("in_s0", rate=lambda m: float(m["s0"]))],
        )
        estimates = estimator.estimate(10000.0, 800, rng)
        ci = estimates["in_s0"].mean()
        assert abs(ci.estimate - 1.0) < 0.15

    def test_time_averaged_rate_reward_bounded(self, rng):
        model = two_stage_model()
        estimator = RewardEstimator(
            model,
            rate_rewards=[RateReward("frac_s0",
                                     rate=lambda m: float(m["s0"] > 0))],
        )
        estimates = estimator.estimate(50.0, 60, rng, time_averaged=True)
        values = estimates["frac_s0"].samples
        assert all(0.0 <= v <= 1.0 + 1e-9 for v in values)

    def test_probability_positive(self, rng):
        model = two_stage_model()
        estimator = RewardEstimator(
            model,
            impulse_rewards=[ImpulseReward("impair", activity="a2")],
        )
        estimates = estimator.estimate(10.0, 100, rng)
        ci = estimates["impair"].probability_positive()
        assert 0.0 <= ci.low <= ci.high <= 1.0

    def test_zero_replications_rejected(self, rng):
        estimator = RewardEstimator(two_stage_model())
        with pytest.raises(ValueError):
            estimator.estimate(1.0, 0, rng)
        for bad in (2.5, True, "3"):
            with pytest.raises(TypeError, match="replications"):
                estimator.estimate(1.0, bad, rng)

    def test_int_seed_is_deterministic(self):
        estimator = RewardEstimator(
            two_stage_model(),
            rate_rewards=[RateReward("in_s0", rate=lambda m: float(m["s0"]))],
            impulse_rewards=[ImpulseReward("a2_done", activity="a2")],
        )
        first = estimator.estimate(10.0, 20, rng=7)
        again = estimator.estimate(10.0, 20, rng=7)
        assert {k: v.samples for k, v in first.items()} == {
            k: v.samples for k, v in again.items()
        }

    @pytest.mark.parametrize(
        "rewards",
        [
            {
                "rate_rewards": [RateReward("x", rate=lambda m: 1.0)],
                "impulse_rewards": [ImpulseReward("x", activity="a1")],
            },
            {
                "rate_rewards": [
                    RateReward("x", rate=lambda m: 1.0),
                    RateReward("x", rate=lambda m: 2.0),
                ],
            },
        ],
        ids=["rate_and_impulse", "two_rate"],
    )
    def test_duplicate_reward_names_rejected(self, rewards):
        with pytest.raises(ValueError, match="'x'"):
            RewardEstimator(two_stage_model(), **rewards)
