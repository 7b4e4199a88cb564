"""Step 1 — Attack modeling.

Builds formal attack models from a configured SCADA system plus a threat
profile, in the three formalisms the paper names:

* :func:`san_model_for` — a stochastic activity network over the paper's
  stage chain (*initial → activated → root access → propagation → device
  impairment*), with per-stage success probabilities derived from the
  installed component variants.  This is the formalism of the SCoPE case
  study and supports both simulation and exact CTMC analysis.
* :func:`attack_tree_for` — a goal-decomposition view.
* :func:`bayesian_attack_graph_for` — a host-level probabilistic
  reachability view.

All three consume the same exploitability data, so they can be
cross-checked against each other and against the full campaign
simulator.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.attacks.profiles import ThreatProfile
from repro.attacktree.nodes import AndNode, LeafAttack, OrNode, SandNode
from repro.attacktree.tree import AttackTree
from repro.bayes.attackgraph import AttackGraph, attack_graph_from_topology
from repro.diversity.catalog import VariantCatalog
from repro.san.builder import SANBuilder
from repro.san.model import SANModel
from repro.scada.components import ComponentKind, HostRole
from repro.scada.network import SCADANetwork, Zone
from repro.stats.distributions import Exponential


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def stage_probabilities(
    network: SCADANetwork,
    catalog: VariantCatalog,
    threat: ThreatProfile,
) -> Dict[str, float]:
    """Aggregate per-stage success probabilities for a configured system.

    The aggregation is the *mean per-attempt success probability over the
    applicable targets* — the abstraction the paper's own stage-level
    example uses ("the root access stage might have a success probability
    P1 when operating system OS1 is used").

    Returns:
        ``{"entry": p, "escalation": p, "propagation": p, "reprogram": p}``.
    """
    entry_probs: List[float] = []
    for host in network.hosts:
        if not host.is_computer:
            continue
        if host.usb_ports or network.zone_of(host.name) == Zone.ENTERPRISE:
            action = "usb_autorun" if host.usb_ports else "net_exploit"
            p = catalog.success_probability(
                ComponentKind.OPERATING_SYSTEM,
                host.variant_of(ComponentKind.OPERATING_SYSTEM),
                action,
            )
            av = host.variant_of(ComponentKind.ANTIVIRUS)
            if av is not None:
                p *= catalog.success_probability(
                    ComponentKind.ANTIVIRUS, av, "av_evasion"
                )
            entry_probs.append(p)

    escalation_probs = [
        catalog.success_probability(
            ComponentKind.OPERATING_SYSTEM,
            host.variant_of(ComponentKind.OPERATING_SYSTEM),
            "priv_escalation",
        )
        for host in network.hosts
        if host.is_computer
    ]

    propagation_probs: List[float] = []
    for vector in threat.vectors:
        for host in network.hosts:
            if not host.is_computer:
                continue
            for target_name in vector.targets(host.name, network):
                propagation_probs.append(
                    vector.success_probability(
                        network.host(target_name), catalog
                    )
                )

    reprogram_probs: List[float] = []
    for plc in network.hosts_with_role(HostRole.PLC):
        p_fw = catalog.success_probability(
            ComponentKind.PLC_FIRMWARE,
            plc.variant_of(ComponentKind.PLC_FIRMWARE),
            "reprogram",
        )
        p_stack = catalog.success_probability(
            ComponentKind.PROTOCOL_STACK,
            plc.variant_of(ComponentKind.PROTOCOL_STACK),
            "reprogram",
        )
        reprogram_probs.append(p_fw * p_stack)

    return {
        "entry": _mean(entry_probs),
        "escalation": _mean(escalation_probs),
        "propagation": _mean(propagation_probs),
        "reprogram": _mean(reprogram_probs),
    }


def san_model_for(
    network: SCADANetwork,
    catalog: VariantCatalog,
    threat: ThreatProfile,
    give_up: bool = False,
) -> SANModel:
    """The stage-chain SAN of the configured system.

    Places: ``dormant → compromised → activated → rooted → positioned →
    impaired``; each timed activity retries on failure (token returns to
    its source place), or — with ``give_up=True`` — moves to an absorbing
    ``abandoned`` place so attack-success probability is < 1.

    Args:
        network: The configured system.
        catalog: Variant catalog.
        threat: Threat profile (provides the stage rates).
        give_up: Whether failed stage attempts abort the campaign.

    Returns:
        An all-exponential :class:`~repro.san.model.SANModel` (CTMC
        analyzable).
    """
    probs = stage_probabilities(network, catalog, threat)
    builder = SANBuilder(f"attack-{threat.name}")
    builder.place("dormant", 1)
    for place in (
        "compromised",
        "activated",
        "rooted",
        "positioned",
        "impaired",
        "abandoned",
    ):
        builder.place(place, 0)
    failure = "abandoned" if give_up else None
    builder.stage(
        "entry",
        "dormant",
        "compromised",
        rate=threat.entry_rate,
        success_probability=probs["entry"],
        failure_place=failure,
    )
    builder.stage(
        "activate",
        "compromised",
        "activated",
        rate=threat.activation_delay_rate,
        success_probability=1.0,
    )
    builder.stage(
        "escalate",
        "activated",
        "rooted",
        rate=threat.escalation_rate,
        success_probability=probs["escalation"],
        failure_place=failure,
    )
    # Propagation to an attack position (a host that can talk to a PLC).
    prop_rate = _mean([v.rate for v in threat.vectors]) or 0.3
    builder.stage(
        "propagate",
        "rooted",
        "positioned",
        rate=prop_rate,
        success_probability=probs["propagation"],
        failure_place=failure,
    )
    builder.stage(
        "reprogram",
        "positioned",
        "impaired",
        rate=threat.reprogram_rate,
        success_probability=probs["reprogram"],
        failure_place=failure,
    )
    return builder.build()


def attack_tree_for(
    network: SCADANetwork,
    catalog: VariantCatalog,
    threat: ThreatProfile,
) -> AttackTree:
    """A goal-decomposition attack tree of the configured system.

    Root = SAND(reach a foothold, escalate, reach attack position,
    reprogram controller); the foothold is an OR over the concrete entry
    hosts.
    """
    entry_leaves: List[LeafAttack] = []
    for host in network.hosts:
        if not host.is_computer:
            continue
        if host.usb_ports or network.zone_of(host.name) == Zone.ENTERPRISE:
            action = "usb_autorun" if host.usb_ports else "net_exploit"
            p = catalog.success_probability(
                ComponentKind.OPERATING_SYSTEM,
                host.variant_of(ComponentKind.OPERATING_SYSTEM),
                action,
            )
            av = host.variant_of(ComponentKind.ANTIVIRUS)
            if av is not None:
                p *= catalog.success_probability(
                    ComponentKind.ANTIVIRUS, av, "av_evasion"
                )
            entry_leaves.append(
                LeafAttack(
                    f"enter_{host.name}",
                    probability=p,
                    cost=5.0,
                    time=Exponential(threat.entry_rate),
                )
            )
    if not entry_leaves:
        entry_leaves.append(
            LeafAttack("enter_nowhere", probability=0.0, cost=0.0)
        )
    probs = stage_probabilities(network, catalog, threat)
    foothold = OrNode("foothold", entry_leaves)
    escalate = LeafAttack(
        "escalate",
        probability=probs["escalation"],
        cost=10.0,
        time=Exponential(threat.escalation_rate),
    )
    position = LeafAttack(
        "reach_position",
        probability=probs["propagation"],
        cost=15.0,
        time=Exponential(
            _mean([v.rate for v in threat.vectors]) or 0.3
        ),
    )
    reprogram = LeafAttack(
        "reprogram_controller",
        probability=probs["reprogram"],
        cost=25.0,
        time=Exponential(threat.reprogram_rate),
    )
    root = SandNode(
        "impair_device", [foothold, escalate, position, reprogram]
    )
    return AttackTree(root)


def bayesian_attack_graph_for(
    network: SCADANetwork,
    catalog: VariantCatalog,
    threat: ThreatProfile,
    entry_prior: float = 1.0,
) -> AttackGraph:
    """A host-level Bayesian attack graph of the configured system.

    The underlying network is undirected; the attack graph is made
    acyclic by orienting every usable link from the host *closer to an
    entry point* to the farther one (BFS layering) — the monotone
    progression assumption standard for Bayesian attack graphs.

    Args:
        network: The configured system.
        catalog: Variant catalog.
        threat: Threat profile (vectors define usable links).
        entry_prior: Prior compromise probability of the attacker's
            staging point.

    Returns:
        The :class:`~repro.bayes.attackgraph.AttackGraph`; query the PLC
        hosts for end-to-end compromise probability.
    """
    entry_hosts = [
        h.name
        for h in network.hosts
        if h.is_computer
        and (h.usb_ports or network.zone_of(h.name) == Zone.ENTERPRISE)
    ]
    # BFS distance from any entry host, over usable links (undirected,
    # neighbours in link-insertion order).
    usable: Dict[str, Dict[str, None]] = {h: {} for h in network.host_names}

    def link(a: str, b: str) -> None:
        usable[a][b] = None
        usable[b][a] = None

    for vector in threat.vectors:
        for host in network.hosts:
            for target in vector.targets(host.name, network):
                link(host.name, target)
    # PLC links (reprogramming flows).
    for plc in network.hosts_with_role(HostRole.PLC):
        for other in network.host_names:
            if other != plc.name and network.flow_allowed(
                other, plc.name, "modbus"
            ):
                link(other, plc.name)

    distance: Dict[str, int] = {}
    frontier = list(entry_hosts)
    for h in frontier:
        distance[h] = 0
    depth = 0
    while frontier:
        depth += 1
        next_frontier: List[str] = []
        for node in frontier:
            for neighbor in usable[node]:
                if neighbor not in distance:
                    distance[neighbor] = depth
                    next_frontier.append(neighbor)
        frontier = next_frontier

    # Each undirected link once, from the first endpoint in host order.
    links: List[Tuple[str, str]] = []
    seen: Set[str] = set()
    for a, neighbors in usable.items():
        links.extend((a, b) for b in neighbors if b not in seen)
        seen.add(a)

    edges: List[Tuple[str, str, float]] = []
    for a, b in links:
        if a not in distance or b not in distance:
            continue
        if distance[a] == distance[b]:
            continue
        src, dst = (a, b) if distance[a] < distance[b] else (b, a)
        target_host = network.host(dst)
        if target_host.role == HostRole.PLC:
            p_fw = catalog.success_probability(
                ComponentKind.PLC_FIRMWARE,
                target_host.variant_of(ComponentKind.PLC_FIRMWARE),
                "reprogram",
            )
            p_stack = catalog.success_probability(
                ComponentKind.PROTOCOL_STACK,
                target_host.variant_of(ComponentKind.PROTOCOL_STACK),
                "reprogram",
            )
            p = p_fw * p_stack
        else:
            p = max(
                (
                    v.success_probability(target_host, catalog)
                    for v in threat.vectors
                    if v.applicable(target_host)
                ),
                default=0.0,
            )
        if p > 0:
            edges.append((src, dst, p))

    priors = {h: entry_prior for h in entry_hosts if h in distance}
    return attack_graph_from_topology(edges, priors)
