"""Bayesian attack graphs over host topologies.

Builds a discrete Bayesian network whose binary variables represent
"host h is compromised".  An attacker entry point is a root variable with
a prior; lateral movement along a network edge contributes a noisy-OR
activation equal to the exploit success probability of that edge — which
in this library is a function of the *component variants* installed on
the target host, connecting the attack graph to the diversity catalog.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.bayes.cpt import CPT
from repro.bayes.inference import VariableElimination
from repro.bayes.network import BayesianNetwork


@dataclass
class AttackGraph:
    """A Bayesian attack graph.

    Attributes:
        network: The underlying Bayesian network (binary variables,
            states ``("false", "true")``).
        hosts: Host names, in topological order of the acyclic
            attack DAG.
        entry_points: Hosts with a compromise prior.
    """

    network: BayesianNetwork
    hosts: List[str]
    entry_points: List[str]

    def compromise_probability(
        self,
        host: str,
        evidence: Optional[Mapping[str, bool]] = None,
    ) -> float:
        """Marginal/posterior P(host compromised).

        Args:
            host: Target host.
            evidence: Optional observed compromise states of other hosts.
        """
        ev = {
            h: ("true" if flag else "false")
            for h, flag in (evidence or {}).items()
        }
        engine = VariableElimination(self.network)
        posterior = engine.query(host, evidence=ev)
        return posterior["true"]


def attack_graph_from_topology(
    reachability: Sequence[Tuple[str, str, float]],
    entry_priors: Mapping[str, float],
    leak: float = 0.0,
) -> AttackGraph:
    """Build an attack graph from exploit reachability.

    Args:
        reachability: ``(source_host, target_host, exploit_probability)``
            triples; the induced graph must be acyclic (attack graphs
            model monotone progression — once compromised, always
            compromised).
        entry_priors: ``{host: prior_compromise_probability}`` for
            attacker entry points.  Hosts that appear only as sources
            must be listed here.
        leak: Baseline compromise probability of every non-entry host.

    Returns:
        The :class:`AttackGraph`.

    Raises:
        ValueError: If the topology has a cycle or probabilities are
            out of range.
    """
    # Insertion-ordered adjacency: ``succ[u][v]`` and ``pred[v][u]`` hold
    # the u->v exploit probability; a repeated edge keeps its place and
    # takes the later probability.  ``pred`` lists every host, in order
    # of first appearance.
    succ: Dict[str, Dict[str, float]] = {}
    pred: Dict[str, Dict[str, float]] = {}
    for source, target, prob in reachability:
        if not 0.0 <= prob <= 1.0:
            raise ValueError(
                f"exploit probability {prob} for edge {source}->{target} "
                "outside [0, 1]"
            )
        pred.setdefault(source, {})
        pred.setdefault(target, {})[source] = prob
        succ.setdefault(source, {})[target] = prob
    for host in entry_priors:
        pred.setdefault(host, {})

    # Kahn's algorithm, one generation at a time: the zero-in-degree
    # hosts in insertion order, then each freed successor in the order
    # its last predecessor lists it.
    indegree = {host: len(preds) for host, preds in pred.items() if preds}
    generation = [host for host, preds in pred.items() if not preds]
    order: List[str] = []
    while generation:
        order.extend(generation)
        freed: List[str] = []
        for host in generation:
            for child in succ.get(host, ()):
                indegree[child] -= 1
                if not indegree[child]:
                    freed.append(child)
                    del indegree[child]
        generation = freed
    if indegree:
        raise ValueError(
            "attack topology has a cycle; compromise must be monotone"
        )

    network = BayesianNetwork("attack-graph")
    for host in order:
        predecessors = list(pred[host])
        if not predecessors:
            prior = entry_priors.get(host)
            if prior is None:
                raise ValueError(
                    f"host {host!r} has no attack predecessors and no "
                    "entry prior"
                )
            if not 0.0 <= prior <= 1.0:
                raise ValueError(f"prior for {host!r} outside [0, 1]")
            network.add_node(
                CPT.root(host, ("false", "true"), (1.0 - prior, prior))
            )
        else:
            activation = dict(pred[host])
            extra_prior = entry_priors.get(host, 0.0)
            effective_leak = 1.0 - (1.0 - leak) * (1.0 - extra_prior)
            network.add_node(
                CPT.noisy_or(host, predecessors, activation, leak=effective_leak)
            )
    entry_points = [h for h in order if h in entry_priors]
    return AttackGraph(network=network, hosts=order, entry_points=entry_points)
