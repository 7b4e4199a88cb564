"""Pinned outputs of the network layer.

Every campaign record depends on the order in which the network yields
neighbours, reachable targets and attack-graph nodes: the campaign
tables, the propagation plans and the Bayesian attack graph all iterate
them.  These digests pin those orders and values for both built-in
topologies, so a change to the adjacency storage, the BFS layering or
the topological sort that reorders one neighbour or moves one bit of a
marginal fails here, before it shows up as a shifted record digest.
"""

import hashlib

import pytest

from repro.attacks.profiles import duqu_like, flame_like, stuxnet_like
from repro.bayes.attackgraph import attack_graph_from_topology
from repro.core.modeling import bayesian_attack_graph_for
from repro.diversity.catalog import default_catalog
from repro.scada.topologies import scope_cooling_topology, smart_grid_feeder

TOPOLOGIES = {
    "scope_cooling": scope_cooling_topology,
    "smart_grid_feeder": smart_grid_feeder,
}
PROFILES = {
    "stuxnet": stuxnet_like,
    "duqu": duqu_like,
    "flame": flame_like,
}


def _digest(lines) -> str:
    digest = hashlib.sha256()
    for line in lines:
        digest.update(repr(line).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def _services(network):
    """Every label on a link, every threat vector's service, the
    wildcard and one label no link carries."""
    labels = {"*", "no_such_service"}
    for a in network.host_names:
        for b in network.host_names:
            labels |= network.link_services(a, b)
    for profile in PROFILES.values():
        labels |= {vector.service for vector in profile().vectors}
    return sorted(labels)


def network_lines(network):
    names = network.host_names
    services = _services(network)
    yield ("hosts", names)
    yield ("services", services)
    for name in names:
        yield ("neighbors", name, network.neighbors(name))
        for service in services:
            yield ("reach", name, service, network.reachable_targets(name, service))
    for source in names:
        for destination in names:
            yield (
                "flow",
                source,
                destination,
                [network.flow_allowed(source, destination, s) for s in services],
            )
    yield ("validate", network.validate())


def attack_graph_lines(graph):
    yield ("hosts", graph.hosts)
    yield ("entry", graph.entry_points)
    yield ("variables", graph.network.variables)
    for host in graph.hosts:
        yield (
            host,
            graph.network.parents(host),
            graph.compromise_probability(host).hex(),
        )


#: ``topology: digest of network_lines``.
NETWORK_GOLDEN = {
    "scope_cooling": (
        "6493cac90364c289f320f869b91d76fc"
        "ddb78fcfea5525f4e64eff26cd6b2a36"
    ),
    "smart_grid_feeder": (
        "6541f502d10b176c18f338318263921b"
        "8f417aaa841db13c8c2891af99657db9"
    ),
}

#: ``(topology, profile): digest of attack_graph_lines``.
BAYES_GOLDEN = {
    ("scope_cooling", "stuxnet"): (
        "bfd343abd4fdce9c46572223c739d0e7"
        "6a7a9080f53bdcc1d6051b426fa9e873"
    ),
    ("scope_cooling", "duqu"): (
        "34f146c08862536696f595c7a472c843"
        "f7b5b81eb60353c653516d0464b2862b"
    ),
    ("scope_cooling", "flame"): (
        "34f146c08862536696f595c7a472c843"
        "f7b5b81eb60353c653516d0464b2862b"
    ),
    ("smart_grid_feeder", "stuxnet"): (
        "7061e1574ef552d0223a738108168fa8"
        "a7daf4ddae256c69e9363a15622c35fe"
    ),
    ("smart_grid_feeder", "duqu"): (
        "3b9876006c09d94363b9150cc7dfb980"
        "273b32bd0c65e4a445c837441306a079"
    ),
    ("smart_grid_feeder", "flame"): (
        "3b9876006c09d94363b9150cc7dfb980"
        "273b32bd0c65e4a445c837441306a079"
    ),
}

#: A DAG with several nodes per generation, edges listed out of
#: topological order, repeated edges (each keeps its place in both
#: endpoints' order and takes the later probability), an entry host that
#: only appears in the priors and one non-root entry.
LAYERED_EDGES = [
    ("dmz", "hmi_1", 0.45),
    ("corp_b", "dmz", 0.5),
    ("corp_a", "dmz", 0.6),
    ("corp_a", "eng", 0.3),
    ("hmi_1", "plc_1", 0.55),
    ("dmz", "hmi_0", 0.4),
    ("eng", "plc_0", 0.7),
    ("hmi_0", "plc_0", 0.5),
    ("corp_b", "eng", 0.35),
    ("eng", "plc_1", 0.65),
    ("dmz", "hmi_1", 0.42),
    ("corp_a", "dmz", 0.61),
    ("hmi_0", "plc_1", 0.2),
    ("corp_b", "dmz", 0.52),
]
LAYERED_PRIORS = {"usb_kiosk": 0.3, "corp_a": 1.0, "corp_b": 0.8, "eng": 0.1}
LAYERED_GOLDEN = (
    "38aa58f942f5d94f7cce491a3e121d93"
    "bd759333451f4bc1d8a1b1063a863160"
)


@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
def test_network_outputs_pinned(topology):
    network = TOPOLOGIES[topology]()
    assert _digest(network_lines(network)) == NETWORK_GOLDEN[topology]


@pytest.mark.parametrize("case", sorted(BAYES_GOLDEN))
def test_bayesian_attack_graph_pinned(case):
    topology, profile = case
    graph = bayesian_attack_graph_for(
        TOPOLOGIES[topology](), default_catalog(), PROFILES[profile]()
    )
    assert _digest(attack_graph_lines(graph)) == BAYES_GOLDEN[case]


def test_layered_attack_graph_pinned():
    graph = attack_graph_from_topology(
        LAYERED_EDGES, LAYERED_PRIORS, leak=0.01
    )
    assert _digest(attack_graph_lines(graph)) == LAYERED_GOLDEN
