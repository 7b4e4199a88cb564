"""Tests for the GSPN simulator."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from repro.petri.gspn import GSPN
from repro.petri.net import Marking, PetriNet


def make_birth_death():
    net = PetriNet("bd")
    net.add_place("idle", 1)
    net.add_place("busy", 0)
    net.add_transition("arrive", {"idle": 1}, {"busy": 1})
    net.add_transition("finish", {"busy": 1}, {"idle": 1})
    return net


class TestDeclarations:
    def test_unknown_transition_rejected(self):
        gspn = GSPN(make_birth_death())
        with pytest.raises(KeyError):
            gspn.add_timed("ghost", 1.0)

    def test_double_declaration_rejected(self):
        gspn = GSPN(make_birth_death())
        gspn.add_timed("arrive", 1.0)
        with pytest.raises(ValueError):
            gspn.add_immediate("arrive")

    def test_undeclared_transition_blocks_simulation(self, rng):
        gspn = GSPN(make_birth_death())
        gspn.add_timed("arrive", 1.0)
        with pytest.raises(ValueError):
            gspn.simulate(10.0, rng)

    def test_nonpositive_weight_rejected(self):
        gspn = GSPN(make_birth_death())
        with pytest.raises(ValueError):
            gspn.add_immediate("arrive", weight=0.0)

    def test_nonpositive_rate_rejected_at_use(self, rng):
        gspn = GSPN(make_birth_death())
        gspn.add_timed("arrive", 0.0)
        gspn.add_timed("finish", 1.0)
        with pytest.raises(ValueError):
            gspn.simulate(1.0, rng)

    def test_constructor_takes_no_interpreter_selector(self):
        with pytest.raises(TypeError, match="compiled"):
            GSPN(PetriNet(), compiled=False)

    def test_net_without_declarations_rejected(self):
        net = PetriNet()
        net.add_place("a", 1)
        net.add_transition("t", {"a": 1}, {})
        gspn = GSPN(net)
        with pytest.raises(ValueError, match="without timing declaration"):
            gspn.simulate(1.0, np.random.default_rng(0))

    def test_nonpositive_rate_raises_when_first_enabled(self):
        # "bad" is disabled in the initial marking, so its rate is first
        # read after "ok" has fired.
        net = PetriNet()
        net.add_place("a", 1)
        net.add_place("b", 0)
        net.add_transition("ok", {"a": 1}, {"b": 1})
        net.add_transition("bad", {"b": 1}, {"a": 1})
        gspn = GSPN(net)
        gspn.add_timed("ok", 1.0)
        gspn.add_timed("bad", 0.0)
        with pytest.raises(ValueError, match="non-positive rate"):
            gspn.simulate(1e6, np.random.default_rng(0))

    def test_declaration_added_after_a_run(self):
        net = PetriNet()
        net.add_place("a", 1)
        net.add_place("b", 0)
        net.add_transition("t1", {"a": 1}, {"b": 1})
        gspn = GSPN(net)
        gspn.add_timed("t1", 1.0)
        gspn.simulate(1.0, np.random.default_rng(0))
        net.add_transition("t2", {"b": 1}, {"a": 1})
        gspn.add_timed("t2", 1.0)
        final, _, log = gspn.simulate(5.0, np.random.default_rng(1))
        assert isinstance(final, Marking)
        assert "t2" in {name for _, name, _ in log}


class TestSimulation:
    def test_stop_predicate_records_time(self, rng):
        gspn = GSPN(make_birth_death())
        gspn.add_timed("arrive", 2.0)
        gspn.add_timed("finish", 1.0)
        final, stop_time, log = gspn.simulate(
            100.0, rng, stop=lambda m: m["busy"] > 0
        )
        assert stop_time == stop_time  # not NaN
        assert final["busy"] == 1

    def test_stop_at_time_zero_when_already_satisfied(self, rng):
        gspn = GSPN(make_birth_death())
        gspn.add_timed("arrive", 2.0)
        gspn.add_timed("finish", 1.0)
        __, stop_time, __log = gspn.simulate(
            10.0, rng, stop=lambda m: m["idle"] > 0
        )
        assert stop_time == 0.0

    def test_log_is_time_ordered(self, rng):
        gspn = GSPN(make_birth_death())
        gspn.add_timed("arrive", 5.0)
        gspn.add_timed("finish", 5.0)
        __, __st, log = gspn.simulate(20.0, rng)
        times = [t for t, _, _ in log]
        assert times == sorted(times)

    def test_immediate_fires_before_timed(self, rng):
        net = PetriNet()
        net.add_place("start", 1)
        net.add_place("mid", 0)
        net.add_place("end", 0)
        net.add_transition("timed", {"start": 1}, {"end": 1})
        net.add_transition("instant", {"start": 1}, {"mid": 1})
        gspn = GSPN(net)
        gspn.add_timed("timed", 1000.0)
        gspn.add_immediate("instant")
        final, __, log = gspn.simulate(10.0, rng)
        assert final["mid"] == 1
        assert log[0][0] == 0.0  # fired at time zero

    def test_immediate_priority_ordering(self, rng):
        net = PetriNet()
        net.add_place("p", 1)
        net.add_place("low", 0)
        net.add_place("high", 0)
        net.add_transition("to_low", {"p": 1}, {"low": 1})
        net.add_transition("to_high", {"p": 1}, {"high": 1})
        gspn = GSPN(net)
        gspn.add_immediate("to_low", priority=1)
        gspn.add_immediate("to_high", priority=9)
        final, __, __log = gspn.simulate(1.0, rng)
        assert final["high"] == 1

    def test_immediate_weight_split(self):
        net = PetriNet()
        net.add_place("p", 1)
        net.add_place("a", 0)
        net.add_place("b", 0)
        net.add_transition("to_a", {"p": 1}, {"a": 1})
        net.add_transition("to_b", {"p": 1}, {"b": 1})
        gspn = GSPN(net)
        gspn.add_immediate("to_a", weight=3.0)
        gspn.add_immediate("to_b", weight=1.0)
        rng = np.random.default_rng(0)
        a_count = 0
        for _ in range(2000):
            final, __, __log = gspn.simulate(1.0, rng)
            a_count += final["a"]
        assert a_count / 2000 == pytest.approx(0.75, abs=0.04)

    def test_marking_dependent_rate(self, rng):
        net = PetriNet()
        net.add_place("jobs", 3)
        net.add_place("done", 0)
        net.add_transition("serve", {"jobs": 1}, {"done": 1})
        gspn = GSPN(net)
        gspn.add_timed("serve", lambda m: 2.0 * m["jobs"])  # load-dependent
        final, __, __log = gspn.simulate(1000.0, rng)
        assert final["done"] == 3

    def test_race_winner_distribution(self):
        # Two competing exponentials with rates 3 and 1: the fast one
        # wins 75% of the time.
        net = PetriNet()
        net.add_place("p", 1)
        net.add_place("fast", 0)
        net.add_place("slow", 0)
        net.add_transition("t_fast", {"p": 1}, {"fast": 1})
        net.add_transition("t_slow", {"p": 1}, {"slow": 1})
        gspn = GSPN(net)
        gspn.add_timed("t_fast", 3.0)
        gspn.add_timed("t_slow", 1.0)
        rng = np.random.default_rng(11)
        wins = 0
        for _ in range(3000):
            final, __, __log = gspn.simulate(1000.0, rng)
            wins += final["fast"]
        assert wins / 3000 == pytest.approx(0.75, abs=0.03)


class TestTransientAnalysis:
    def test_completion_probability_ci(self, rng):
        gspn = GSPN(make_birth_death())
        gspn.add_timed("arrive", 1.0)
        gspn.add_timed("finish", 1.0)
        result = gspn.transient_analysis(
            5.0, 200, rng, stop=lambda m: m["busy"] > 0
        )
        ci = result.completion_probability()
        # P(arrival by t=5) = 1 - e^-5 ≈ 0.993
        assert ci.low <= 0.995
        assert ci.estimate > 0.9

    def test_mean_completion_time(self, rng):
        gspn = GSPN(make_birth_death())
        gspn.add_timed("arrive", 2.0)
        gspn.add_timed("finish", 1.0)
        result = gspn.transient_analysis(
            100.0, 300, rng, stop=lambda m: m["busy"] > 0
        )
        ci = result.mean_completion_time()
        assert ci is not None
        assert ci.contains(0.5) or abs(ci.estimate - 0.5) < 0.1

    def test_zero_replications_rejected(self, rng):
        gspn = GSPN(make_birth_death())
        gspn.add_timed("arrive", 1.0)
        gspn.add_timed("finish", 1.0)
        with pytest.raises(ValueError):
            gspn.transient_analysis(1.0, 0, rng)
        for bad in (2.5, True, "3"):
            with pytest.raises(TypeError, match="replications"):
                gspn.transient_analysis(1.0, bad, rng)

    def test_int_seed_is_deterministic(self):
        gspn = GSPN(make_birth_death())
        gspn.add_timed("arrive", 1.0)
        gspn.add_timed("finish", 1.0)
        first = gspn.transient_analysis(5.0, 3, 7)
        again = gspn.transient_analysis(5.0, 3, 7)
        assert first.final_markings == again.final_markings
        assert repr(first.completion_times) == repr(again.completion_times)


def _birth_death_oracle():
    """Idle <-> busy at rates 2 and 1; P(busy at t) has a closed form."""
    gspn = GSPN(make_birth_death())
    gspn.add_timed("arrive", 2.0)
    gspn.add_timed("finish", 1.0)
    q = [[-2.0, 2.0], [1.0, -1.0]]
    return gspn, q, lambda m: m["busy"], 1


def _two_server_queue_oracle():
    """Capacity 2 through an inhibitor arc, service rate 1 per job."""
    net = PetriNet()
    net.add_place("queue", 0)
    net.add_transition("arrive", {}, {"queue": 1}, inhibitors={"queue": 2})
    net.add_transition("serve", {"queue": 1}, {})
    gspn = GSPN(net)
    gspn.add_timed("arrive", 1.5)
    gspn.add_timed("serve", lambda m: 1.0 * m["queue"])
    q = [[-1.5, 1.5, 0.0], [1.0, -2.5, 1.5], [0.0, 2.0, -2.0]]
    return gspn, q, lambda m: m["queue"], 2


def _immediate_split_oracle():
    """An arrival splits 3:1 through immediate transitions into two
    tangible states, served at rates 1 and 3."""
    net = PetriNet()
    net.add_place("idle", 1)
    net.add_place("p", 0)
    net.add_place("a", 0)
    net.add_place("b", 0)
    net.add_transition("arrive", {"idle": 1}, {"p": 1})
    net.add_transition("to_a", {"p": 1}, {"a": 1})
    net.add_transition("to_b", {"p": 1}, {"b": 1})
    net.add_transition("done_a", {"a": 1}, {"idle": 1})
    net.add_transition("done_b", {"b": 1}, {"idle": 1})
    gspn = GSPN(net)
    gspn.add_timed("arrive", 2.0)
    gspn.add_immediate("to_a", weight=3.0)
    gspn.add_immediate("to_b", weight=1.0)
    gspn.add_timed("done_a", 1.0)
    gspn.add_timed("done_b", 3.0)
    q = [[-2.0, 1.5, 0.5], [1.0, -1.0, 0.0], [3.0, 0.0, -3.0]]
    return gspn, q, lambda m: m["a"] + 2 * m["b"], 1


class TestExactOracle:
    """Monte Carlo transient probabilities against exact CTMC solutions.

    Each case builds a net, the generator ``q`` of its tangible-marking
    CTMC (state 0 is the initial marking), a function mapping a marking
    to its state index, and the state whose probability is checked.
    The exact answer is row 0 of ``expm(q * t)``.  The bound is 4.5
    binomial standard errors at 4,000 replications (about 0.036); a
    correct simulator exceeds it on about 7 seeds in a million.
    """

    T = 0.5
    N = 4_000

    def test_birth_death_generator_matches_closed_form(self):
        # P(busy at t) = lam / (lam + mu) * (1 - exp(-(lam + mu) t)),
        # 0.518 at t = 0.5 for lam = 2, mu = 1.
        _, q, _, _ = _birth_death_oracle()
        exact = expm(np.array(q) * self.T)[0, 1]
        closed = 2.0 / 3.0 * (1.0 - math.exp(-3.0 * self.T))
        assert exact == pytest.approx(closed, rel=1e-12)

    @pytest.mark.parametrize(
        "oracle",
        [_birth_death_oracle, _two_server_queue_oracle,
         _immediate_split_oracle],
        ids=["birth_death", "two_server_queue", "immediate_split"],
    )
    def test_transient_matches_exact_ctmc(self, oracle):
        # Scaling "arrive" by 1.25 moves the birth-death answer to
        # 0.590, about 9 standard errors away.
        gspn, q, state, target = oracle()
        exact = expm(np.array(q) * self.T)[0, target]
        result = gspn.transient_analysis(self.T, self.N, 2013)
        hits = sum(state(m) == target for m in result.final_markings)
        sigma = math.sqrt(exact * (1.0 - exact) / self.N)
        assert abs(hits / self.N - exact) <= 4.5 * sigma
