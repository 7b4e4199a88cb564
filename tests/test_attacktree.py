"""Tests for attack trees."""

import math

import numpy as np
import pytest

from repro.attacktree.analysis import _sample_node, evaluate, monte_carlo
from repro.attacktree.cutsets import minimal_cut_sets
from repro.attacktree.nodes import (
    AndNode,
    KofNNode,
    LeafAttack,
    OrNode,
    SandNode,
)
from repro.attacktree.tree import AttackTree
from repro.stats.distributions import (
    Deterministic,
    Distribution,
    Exponential,
    Uniform,
    Weibull,
)


def leaf(name, p, cost=1.0, t=0.0):
    return LeafAttack(name, probability=p, cost=cost, time=Deterministic(t))


class TestStructure:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            AttackTree(AndNode("root", [leaf("x", 0.5), leaf("x", 0.6)]))

    def test_shared_subtree_allowed(self):
        shared = leaf("shared", 0.5)
        tree = AttackTree(OrNode("root", [shared, AndNode("mid", [shared])]))
        assert len(tree.leaves()) == 1

    def test_empty_gate_rejected(self):
        with pytest.raises(ValueError):
            AndNode("root", [])

    def test_kofn_bounds_validated(self):
        children = [leaf("a", 0.5), leaf("b", 0.5)]
        with pytest.raises(ValueError):
            KofNNode("root", children, k=3)
        with pytest.raises(ValueError):
            KofNNode("root", children, k=0)

    def test_leaf_probability_validated(self):
        with pytest.raises(ValueError):
            LeafAttack("bad", probability=1.2)

    def test_leaf_cost_validated(self):
        with pytest.raises(ValueError):
            LeafAttack("bad", probability=0.5, cost=-1.0)

    def test_node_lookup(self):
        tree = AttackTree(AndNode("root", [leaf("a", 0.5)]))
        assert tree.node("a").name == "a"
        with pytest.raises(KeyError):
            tree.node("ghost")

    def test_format_tree_renders_all_nodes(self):
        tree = AttackTree(AndNode("root", [leaf("a", 0.5), leaf("b", 0.7)]))
        text = tree.format_tree()
        assert "root" in text and "a" in text and "b" in text


class TestPropagation:
    def test_and_multiplies_probabilities(self):
        tree = AttackTree(AndNode("root", [leaf("a", 0.5), leaf("b", 0.4)]))
        assert evaluate(tree).probability == pytest.approx(0.2)

    def test_or_is_one_minus_product_of_complements(self):
        tree = AttackTree(OrNode("root", [leaf("a", 0.5), leaf("b", 0.4)]))
        assert evaluate(tree).probability == pytest.approx(0.7)

    def test_sand_multiplies_probabilities_and_adds_times(self):
        tree = AttackTree(
            SandNode("root", [leaf("a", 0.5, t=2.0), leaf("b", 0.4, t=3.0)])
        )
        metrics = evaluate(tree)
        assert metrics.probability == pytest.approx(0.2)
        assert metrics.expected_time == pytest.approx(5.0)

    def test_and_takes_max_time(self):
        tree = AttackTree(
            AndNode("root", [leaf("a", 1.0, t=2.0), leaf("b", 1.0, t=7.0)])
        )
        assert evaluate(tree).expected_time == pytest.approx(7.0)

    def test_and_adds_costs(self):
        tree = AttackTree(
            AndNode("root", [leaf("a", 1.0, cost=3.0), leaf("b", 1.0, cost=4.0)])
        )
        assert evaluate(tree).cost == pytest.approx(7.0)

    def test_or_picks_cheapest_viable_branch(self):
        tree = AttackTree(
            OrNode("root", [leaf("pricey", 0.9, cost=100.0),
                            leaf("cheap", 0.2, cost=1.0)])
        )
        assert evaluate(tree).cost == pytest.approx(1.0)

    def test_or_ignores_zero_probability_branch_for_cost(self):
        tree = AttackTree(
            OrNode("root", [leaf("dead", 0.0, cost=0.5),
                            leaf("live", 0.5, cost=9.0)])
        )
        assert evaluate(tree).cost == pytest.approx(9.0)

    def test_kofn_probability_matches_binomial(self):
        children = [leaf(f"l{i}", 0.5) for i in range(4)]
        tree = AttackTree(KofNNode("root", children, k=2))
        # P(X>=2), X~Bin(4, 0.5) = 11/16
        assert evaluate(tree).probability == pytest.approx(11 / 16)

    def test_kofn_cost_is_k_cheapest(self):
        children = [
            leaf("a", 0.5, cost=1.0),
            leaf("b", 0.5, cost=2.0),
            leaf("c", 0.5, cost=9.0),
        ]
        tree = AttackTree(KofNNode("root", children, k=2))
        assert evaluate(tree).cost == pytest.approx(3.0)

    def test_diversity_intuition_and_beats_or(self):
        # The paper's core claim in tree form: forcing the attacker
        # through two diverse steps (AND) yields lower success than
        # letting one of two identical exploits suffice (OR).
        p = 0.5
        and_tree = AttackTree(AndNode("root", [leaf("m1", p), leaf("m2", p)]))
        or_tree = AttackTree(OrNode("root2", [leaf("n1", p), leaf("n2", p)]))
        assert evaluate(and_tree).probability < evaluate(or_tree).probability


class TestMonteCarlo:
    def test_mc_agrees_with_closed_form(self):
        tree = AttackTree(
            OrNode(
                "root",
                [
                    AndNode("left", [leaf("a", 0.6), leaf("b", 0.7)]),
                    leaf("c", 0.2),
                ],
            )
        )
        analytic = evaluate(tree).probability
        ci, __ = monte_carlo(tree, 4000, np.random.default_rng(4))
        assert ci.low <= analytic <= ci.high

    def test_sand_times_add_in_samples(self):
        tree = AttackTree(
            SandNode("root", [leaf("a", 1.0, t=1.0), leaf("b", 1.0, t=2.0)])
        )
        __, times = monte_carlo(tree, 50, np.random.default_rng(1))
        assert all(t == pytest.approx(3.0) for t in times)

    def test_zero_replications_rejected(self):
        tree = AttackTree(leaf("a", 0.5))
        with pytest.raises(ValueError):
            monte_carlo(tree, 0, np.random.default_rng(1))

    def test_kofn_sampling(self):
        children = [leaf(f"l{i}", 0.5) for i in range(4)]
        tree = AttackTree(KofNNode("root", children, k=2))
        ci, __ = monte_carlo(tree, 4000, np.random.default_rng(9))
        assert abs(ci.estimate - 11 / 16) < 0.05


    @pytest.mark.parametrize("bad", [True, 2.0, "3", None])
    def test_non_integer_replications_rejected(self, bad):
        tree = AttackTree(leaf("a", 0.5))
        with pytest.raises(TypeError, match="replications"):
            monte_carlo(tree, bad, np.random.default_rng(1))

    def test_negative_replications_named(self):
        tree = AttackTree(leaf("a", 0.5))
        with pytest.raises(ValueError, match="replications"):
            monte_carlo(tree, -3, np.random.default_rng(1))

    def test_numpy_integer_replications_accepted(self):
        tree = AttackTree(leaf("a", 1.0, t=2.0))
        ci, times = monte_carlo(tree, np.int64(5), np.random.default_rng(1))
        assert ci.estimate == 1.0 and times == [2.0] * 5


def _gate_sample(node, size=3):
    """One gate's (success, time) over ``size`` replications."""
    ok, times = _sample_node(node, np.random.default_rng(0), size)
    assert ok.shape == times.shape == (size,)
    assert len(set(ok.tolist())) == 1 and len(set(times.tolist())) == 1
    return bool(ok[0]), float(times[0])


class TestGateTimeRules:
    """Deterministic leaves (p in {0, 1}) pin each gate's time rule."""

    def test_leaf(self):
        assert _gate_sample(leaf("a", 1.0, t=2.5)) == (True, 2.5)
        assert _gate_sample(leaf("a", 0.0, t=2.5)) == (False, 2.5)

    def test_and_takes_max(self):
        node = AndNode("g", [leaf("a", 1.0, t=1.0), leaf("b", 1.0, t=4.0)])
        assert _gate_sample(node) == (True, 4.0)

    def test_and_with_a_failed_child_fails_at_max(self):
        node = AndNode("g", [leaf("a", 0.0, t=1.0), leaf("b", 1.0, t=4.0)])
        assert _gate_sample(node) == (False, 4.0)

    def test_sand_sums(self):
        node = SandNode(
            "g",
            [
                leaf("a", 1.0, t=1.0),
                leaf("b", 1.0, t=2.0),
                leaf("c", 1.0, t=4.0),
            ],
        )
        assert _gate_sample(node) == (True, 7.0)

    def test_sand_with_a_failed_child_fails_at_sum(self):
        node = SandNode("g", [leaf("a", 1.0, t=1.0), leaf("b", 0.0, t=2.0)])
        assert _gate_sample(node) == (False, 3.0)

    def test_or_takes_fastest_successful_child(self):
        # The fastest child (t=1) failed, so the OR completes at t=2.
        node = OrNode(
            "g",
            [
                leaf("a", 0.0, t=1.0),
                leaf("b", 1.0, t=4.0),
                leaf("c", 1.0, t=2.0),
            ],
        )
        assert _gate_sample(node) == (True, 2.0)

    def test_or_with_all_children_failed_takes_max(self):
        node = OrNode(
            "g",
            [
                leaf("a", 0.0, t=1.0),
                leaf("b", 0.0, t=4.0),
                leaf("c", 0.0, t=2.0),
            ],
        )
        assert _gate_sample(node) == (False, 4.0)

    def test_kofn_takes_kth_successful_time(self):
        children = [
            leaf("a", 1.0, t=5.0),
            leaf("b", 0.0, t=1.0),
            leaf("c", 1.0, t=3.0),
            leaf("d", 1.0, t=4.0),
        ]
        assert _gate_sample(KofNNode("g", children, k=2)) == (True, 4.0)
        assert _gate_sample(KofNNode("g", children, k=3)) == (True, 5.0)

    def test_kofn_short_of_k_successes_takes_max(self):
        children = [
            leaf("a", 1.0, t=5.0),
            leaf("b", 0.0, t=6.0),
            leaf("c", 1.0, t=3.0),
        ]
        assert _gate_sample(KofNNode("g", children, k=3)) == (False, 6.0)

    def test_kofn_with_all_children_failed_takes_max(self):
        children = [leaf("a", 0.0, t=5.0), leaf("b", 0.0, t=6.0)]
        assert _gate_sample(KofNNode("g", children, k=1)) == (False, 6.0)

    def test_nested_failed_branch_feeds_parent_max(self):
        # SAND(OR(all fail: max 4), 1): fails at 4 + 1.
        inner = OrNode("or", [leaf("a", 0.0, t=1.0), leaf("b", 0.0, t=4.0)])
        node = SandNode("g", [inner, leaf("c", 1.0, t=1.0)])
        assert _gate_sample(node) == (False, 5.0)

    def test_monte_carlo_returns_success_times_in_order(self):
        tree = AttackTree(
            OrNode("g", [leaf("a", 0.0, t=1.0), leaf("b", 1.0, t=3.0)])
        )
        ci, times = monte_carlo(tree, 4, np.random.default_rng(0))
        assert ci.estimate == 1.0
        assert times == [3.0] * 4 and all(type(t) is float for t in times)


# ---- agreement with the one-replication-at-a-time sampler -------------------


def _recursive_sample(node, rng):
    """The pre-2.1 scalar sampler, kept here as the reference."""
    if isinstance(node, LeafAttack):
        duration = node.time.sample(rng)
        return bool(rng.random() < node.probability), duration
    outcomes = [_recursive_sample(c, rng) for c in node.children()]
    if isinstance(node, AndNode):
        return all(o for o, _ in outcomes), max(t for _, t in outcomes)
    if isinstance(node, SandNode):
        return all(o for o, _ in outcomes), sum(t for _, t in outcomes)
    if isinstance(node, OrNode):
        winners = [t for ok, t in outcomes if ok]
        if winners:
            return True, min(winners)
        return False, max(t for _, t in outcomes)
    winners = sorted(t for ok, t in outcomes if ok)
    if len(winners) >= node.k:
        return True, winners[node.k - 1]
    return False, max(t for _, t in outcomes)


def _recursive_monte_carlo(tree, replications, rng):
    samples = [_recursive_sample(tree.root, rng) for _ in range(replications)]
    return [t for ok, t in samples if ok]


def _paper_tree(name):
    from repro.core.modeling import attack_tree_for
    from repro.scenarios import get_scenario

    scenario = get_scenario(name)
    return attack_tree_for(
        scenario.build_network(),
        scenario.build_catalog(),
        scenario.build_threat(),
    )


PAPER_TREES = ("cooling_stuxnet", "smart_grid_stuxnet")


class TestAgreementWithRecursiveSampler:
    N = 20_000

    @pytest.mark.parametrize("name", PAPER_TREES)
    def test_success_proportion_and_time_distribution_agree(self, name):
        from scipy.stats import ks_2samp

        tree = _paper_tree(name)
        ci, times = monte_carlo(tree, self.N, np.random.default_rng(101))
        reference = _recursive_monte_carlo(
            tree, self.N, np.random.default_rng(202)
        )
        p_new, p_old = len(times) / self.N, len(reference) / self.N
        pooled = (len(times) + len(reference)) / (2 * self.N)
        se = math.sqrt(2 * pooled * (1 - pooled) / self.N)
        assert 0.0 < pooled < 1.0
        assert abs(p_new - p_old) < 4.0 * se
        assert ci.estimate == p_new
        assert ks_2samp(times, reference).pvalue > 1e-3
        analytic = evaluate(tree).probability
        assert ci.low <= analytic <= ci.high


class TestNoScalarSampling:
    def test_monte_carlo_never_calls_distribution_sample(self, monkeypatch):
        calls = []

        def counting_sample(self, rng):
            calls.append(type(self).__name__)
            raise AssertionError("scalar Distribution.sample called")

        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        for cls in [Distribution, *subclasses(Distribution)]:
            monkeypatch.setattr(cls, "sample", counting_sample)
        mixed = AttackTree(
            KofNNode(
                "root",
                [
                    LeafAttack("e", 0.7, time=Exponential(0.5)),
                    LeafAttack("u", 0.6, time=Uniform(1.0, 2.0)),
                    LeafAttack("w", 0.5, time=Weibull(0.8, 2.0)),
                    LeafAttack("d", 0.9, time=Deterministic(1.5)),
                ],
                k=2,
            )
        )
        for tree in [mixed, *(_paper_tree(name) for name in PAPER_TREES)]:
            monte_carlo(tree, 500, np.random.default_rng(3))
        assert calls == []

class TestCutSets:
    def test_single_and(self):
        tree = AttackTree(AndNode("root", [leaf("a", 0.5), leaf("b", 0.5)]))
        assert minimal_cut_sets(tree) == [{"a", "b"}]

    def test_single_or(self):
        tree = AttackTree(OrNode("root", [leaf("a", 0.5), leaf("b", 0.5)]))
        assert minimal_cut_sets(tree) == [{"a"}, {"b"}]

    def test_nested_and_or(self):
        tree = AttackTree(
            SandNode(
                "root",
                [OrNode("entry", [leaf("usb", 0.3), leaf("smb", 0.5)]),
                 leaf("payload", 0.8)],
            )
        )
        cut_sets = minimal_cut_sets(tree)
        assert {"usb", "payload"} in cut_sets
        assert {"smb", "payload"} in cut_sets
        assert len(cut_sets) == 2

    def test_absorption_removes_supersets(self):
        shared = leaf("a", 0.5)
        tree = AttackTree(
            OrNode("root", [shared, AndNode("redundant", [shared, leaf("b", 0.5)])])
        )
        assert minimal_cut_sets(tree) == [{"a"}]

    def test_kofn_cut_sets(self):
        children = [leaf("a", 0.5), leaf("b", 0.5), leaf("c", 0.5)]
        tree = AttackTree(KofNNode("root", children, k=2))
        cut_sets = minimal_cut_sets(tree)
        assert len(cut_sets) == 3
        assert all(len(cs) == 2 for cs in cut_sets)

    def test_cut_sets_sorted_smallest_first(self):
        tree = AttackTree(
            OrNode(
                "root",
                [AndNode("pair", [leaf("x", 0.5), leaf("y", 0.5)]),
                 leaf("solo", 0.5)],
            )
        )
        cut_sets = minimal_cut_sets(tree)
        assert cut_sets[0] == {"solo"}
