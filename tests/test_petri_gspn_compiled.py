"""Equivalence suite: compiled GSPN fast path vs legacy interpreter."""

import numpy as np
import pytest

from repro.petri.gspn import GSPN
from repro.petri.net import Marking, PetriNet


def assert_equivalent(build, horizon, stop=None, seeds=range(20)):
    """Both interpreters must match bit-for-bit on every seed.

    Args:
        build: ``build(compiled) -> GSPN`` factory (fresh net per call,
            since rate callables may close over state).
    """
    for seed in seeds:
        rng_fast = np.random.default_rng(seed)
        rng_slow = np.random.default_rng(seed)
        final_a, stop_a, log_a = build(True).simulate(
            horizon, rng_fast, stop=stop
        )
        final_b, stop_b, log_b = build(False).simulate(
            horizon, rng_slow, stop=stop
        )
        assert final_a == final_b
        assert stop_a == stop_b or (
            np.isnan(stop_a) and np.isnan(stop_b)
        )
        assert log_a == log_b
        assert rng_fast.random() == rng_slow.random()


def birth_death(compiled):
    net = PetriNet("bd")
    net.add_place("idle", 1)
    net.add_place("busy", 0)
    net.add_transition("arrive", {"idle": 1}, {"busy": 1})
    net.add_transition("finish", {"busy": 1}, {"idle": 1})
    gspn = GSPN(net, compiled=compiled)
    gspn.add_timed("arrive", 2.0)
    gspn.add_timed("finish", 1.0)
    return gspn


def mixed_net(compiled):
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
    gspn = GSPN(net, compiled=compiled)
    gspn.add_timed("arrive", lambda m: 1.0 * max(m["idle"], 1))
    gspn.add_timed("finish", lambda m: 2.0 * max(m["busy"], 1))
    gspn.add_timed("leak", 0.5)
    gspn.add_timed("open", 0.2)
    gspn.add_immediate("imm_a", weight=3.0, priority=2)
    gspn.add_immediate("imm_b", weight=1.0, priority=2)
    return gspn


def priority_split(compiled):
    net = PetriNet()
    net.add_place("p", 3)
    net.add_place("low", 0)
    net.add_place("high", 0)
    net.add_place("pump", 0)
    net.add_transition("feed", {"pump": 1}, {"p": 1})
    net.add_transition("to_low", {"p": 1}, {"low": 1})
    net.add_transition("to_high", {"p": 1}, {"high": 1})
    gspn = GSPN(net, compiled=compiled)
    gspn.add_timed("feed", 1.0)
    gspn.add_immediate("to_low", weight=1.0, priority=1)
    gspn.add_immediate("to_high", weight=4.0, priority=1)
    return gspn


class TestEquivalence:
    def test_static_rate_birth_death(self):
        assert_equivalent(birth_death, 200.0)

    def test_mixed_immediate_inhibitor_dynamic_rates(self):
        assert_equivalent(mixed_net, 40.0)

    def test_stop_predicate(self):
        assert_equivalent(
            mixed_net, 40.0, stop=lambda m: m["done"] > 0
        )

    def test_immediate_priority_split(self):
        assert_equivalent(priority_split, 30.0)

    def test_transient_analysis_matches(self):
        rng_fast = np.random.default_rng(3)
        rng_slow = np.random.default_rng(3)
        fast = birth_death(True).transient_analysis(
            50.0, 40, rng_fast, stop=lambda m: m["busy"] > 0
        )
        slow = birth_death(False).transient_analysis(
            50.0, 40, rng_slow, stop=lambda m: m["busy"] > 0
        )
        assert fast.final_markings == slow.final_markings
        assert fast.completion_times == pytest.approx(
            slow.completion_times, nan_ok=True
        )


class TestCompiledBehaviour:
    def test_undeclared_transition_still_rejected(self):
        net = PetriNet()
        net.add_place("a", 1)
        net.add_transition("t", {"a": 1}, {})
        gspn = GSPN(net)  # compiled default
        with pytest.raises(ValueError):
            gspn.simulate(1.0, np.random.default_rng(0))

    def test_nonpositive_static_rate_raises_at_use(self):
        net = PetriNet()
        net.add_place("a", 1)
        net.add_place("b", 0)
        net.add_transition("bad", {"a": 1}, {"b": 1})
        net.add_transition("ok", {"b": 1}, {"a": 1})
        gspn = GSPN(net)
        gspn.add_timed("bad", 0.0)
        gspn.add_timed("ok", 1.0)
        with pytest.raises(ValueError):
            gspn.simulate(1.0, np.random.default_rng(0))

    def test_compile_invalidated_by_new_declaration(self):
        net = PetriNet()
        net.add_place("a", 1)
        net.add_place("b", 0)
        net.add_transition("t1", {"a": 1}, {"b": 1})
        gspn = GSPN(net)
        gspn.add_timed("t1", 1.0)
        gspn.simulate(1.0, np.random.default_rng(0))
        net.add_transition("t2", {"b": 1}, {"a": 1})
        gspn.add_timed("t2", 1.0)  # must not raise / go stale
        final, _, _ = gspn.simulate(5.0, np.random.default_rng(1))
        assert isinstance(final, Marking)

    def test_fast_marking_constructor_invariants(self):
        marking = Marking._from_nonzero_sorted((("a", 2), ("b", 1)))
        assert marking["a"] == 2
        assert marking == Marking({"b": 1, "a": 2})
        assert hash(marking) == hash(Marking({"a": 2, "b": 1}))
