"""Quantitative attack-tree analysis.

Bottom-up propagation computes, under the usual leaf-independence
assumption:

* **success probability** — AND: product; OR: 1 - Π(1-p); k-of-n:
  Poisson-binomial tail; SAND: product.
* **attacker cost** — AND/SAND: sum of children; OR: cost of the
  cheapest child whose probability is positive (a rational attacker
  picks one branch); k-of-n: sum of the k cheapest children.
* **expected time** — leaves: mean of the time distribution; SAND: sum;
  AND: max (parallel execution); OR: time of the chosen (cheapest)
  branch; k-of-n: k-th smallest child time.

Monte-Carlo evaluation samples leaf outcomes and durations jointly,
vectorized over replications, giving the full distribution of goal
success and time — used when the closed forms' independence
assumptions need checking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.attacktree.nodes import (
    AndNode,
    KofNNode,
    LeafAttack,
    Node,
    OrNode,
    SandNode,
)
from repro.attacktree.tree import AttackTree
from repro.exec.runner import validate_batch_args
from repro.stats.ci import ConfidenceInterval, proportion_ci


@dataclass(frozen=True)
class TreeMetrics:
    """Propagated metrics of a (sub)tree.

    Attributes:
        probability: Goal success probability.
        cost: Expected attacker cost along the rational plan.
        expected_time: Expected duration of the rational plan.
    """

    probability: float
    cost: float
    expected_time: float


def _poisson_binomial_tail(probs: List[float], k: int) -> float:
    """P(at least k of the independent Bernoulli trials succeed)."""
    n = len(probs)
    # Dynamic program over the count distribution.
    dist = np.zeros(n + 1)
    dist[0] = 1.0
    for p in probs:
        dist[1:] = dist[1:] * (1 - p) + dist[:-1] * p
        dist[0] *= 1 - p
    return float(dist[k:].sum())


def evaluate(tree: AttackTree) -> TreeMetrics:
    """Propagate probability, cost and expected time to the root."""
    return _evaluate_node(tree.root)


def _evaluate_node(node: Node) -> TreeMetrics:
    if isinstance(node, LeafAttack):
        return TreeMetrics(node.probability, node.cost, node.time.mean())
    child_metrics = [_evaluate_node(c) for c in node.children()]
    if isinstance(node, AndNode):
        prob = float(np.prod([m.probability for m in child_metrics]))
        cost = sum(m.cost for m in child_metrics)
        time = max(m.expected_time for m in child_metrics)
        return TreeMetrics(prob, cost, time)
    if isinstance(node, SandNode):
        prob = float(np.prod([m.probability for m in child_metrics]))
        cost = sum(m.cost for m in child_metrics)
        time = sum(m.expected_time for m in child_metrics)
        return TreeMetrics(prob, cost, time)
    if isinstance(node, OrNode):
        viable = [m for m in child_metrics if m.probability > 0]
        if not viable:
            return TreeMetrics(0.0, min(m.cost for m in child_metrics),
                               min(m.expected_time for m in child_metrics))
        prob = 1.0 - float(np.prod([1 - m.probability for m in child_metrics]))
        best = min(viable, key=lambda m: m.cost)
        return TreeMetrics(prob, best.cost, best.expected_time)
    if isinstance(node, KofNNode):
        prob = _poisson_binomial_tail(
            [m.probability for m in child_metrics], node.k
        )
        by_cost = sorted(child_metrics, key=lambda m: m.cost)
        cost = sum(m.cost for m in by_cost[: node.k])
        times = sorted(m.expected_time for m in child_metrics)
        time = times[node.k - 1]
        return TreeMetrics(prob, cost, time)
    raise TypeError(f"unknown node type {type(node).__name__}")


def monte_carlo(
    tree: AttackTree,
    replications: int,
    rng: np.random.Generator,
) -> Tuple[ConfidenceInterval, List[float]]:
    """Sample the tree ``replications`` times.

    Each replication draws every leaf's success and duration, then
    evaluates the gates: a SAND node's time is the sum of its children's,
    an AND node's the max, an OR node's the minimum among *successful*
    children, a k-of-n node's the k-th order statistic among successful
    children.  A failed OR or k-of-n node takes the maximum of all its
    children's times.

    The tree is evaluated node by node over all replications at once:
    each leaf draws its ``replications`` durations with
    :meth:`~repro.stats.distributions.Distribution.sample_many`, and
    each gate is a NumPy reduction over its children.  A leaf reached
    through several parents is sampled independently per occurrence.

    Since 2.1.0 the same ``rng`` yields a different stream than the
    earlier one-replication-at-a-time sampler; the distribution of the
    results is unchanged.

    Returns:
        ``(success_ci, success_times)`` — Wilson CI for goal success and
        the goal completion times of the successful replications, in
        replication order.

    Raises:
        TypeError: If ``replications`` is not an integer.
        ValueError: If ``replications < 1``.
    """
    validate_batch_args(replications)
    ok, times = _sample_node(tree.root, rng, replications)
    return proportion_ci(int(ok.sum()), replications), times[ok].tolist()


def _sample_node(
    node: Node, rng: np.random.Generator, size: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Success flags and completion times of ``node``, one per replication."""
    if isinstance(node, LeafAttack):
        durations = np.asarray(node.time.sample_many(rng, size), dtype=float)
        return rng.random(size) < node.probability, durations
    samples = [_sample_node(child, rng, size) for child in node.children()]
    ok = np.array([flags for flags, _ in samples])
    times = np.array([durations for _, durations in samples])
    if isinstance(node, AndNode):
        return ok.all(axis=0), times.max(axis=0)
    if isinstance(node, SandNode):
        return ok.all(axis=0), times.sum(axis=0)
    if isinstance(node, (OrNode, KofNNode)):
        # An OR gate is a 1-of-n gate.
        k = node.k if isinstance(node, KofNNode) else 1
        success = ok.sum(axis=0) >= k
        kth_winner = np.sort(np.where(ok, times, np.inf), axis=0)[k - 1]
        return success, np.where(success, kth_winner, times.max(axis=0))
    raise TypeError(f"unknown node type {type(node).__name__}")
