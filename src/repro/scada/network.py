"""Zoned SCADA network topology.

Hosts live in Purdue-style zones (enterprise, DMZ, supervisory, control,
field).  Links connect hosts; traffic crossing zone boundaries is subject
to :class:`FirewallRule` filtering.  Attack propagation queries the
network for which hosts an infected node can reach with a given vector.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.scada.components import Host, HostRole


class Zone(Enum):
    """Purdue-model zones, highest (enterprise) to lowest (field)."""

    ENTERPRISE = 4
    DMZ = 3
    SUPERVISORY = 2
    CONTROL = 1
    FIELD = 0


@dataclass(frozen=True)
class FirewallRule:
    """An allow rule for cross-zone traffic.

    Traffic between different zones is **denied by default**; a rule
    whitelists a (source zone, destination zone, service) triple.

    Attributes:
        source: Originating zone.
        destination: Target zone.
        service: Service label (e.g. ``"modbus"``, ``"smb"``,
            ``"historian"``); ``"*"`` allows every service.
    """

    source: Zone
    destination: Zone
    service: str = "*"

    def permits(self, source: Zone, destination: Zone, service: str) -> bool:
        """Whether this rule allows the given flow."""
        if source != self.source or destination != self.destination:
            return False
        return self.service == "*" or self.service == service


class SCADANetwork:
    """The monitoring-and-control network.

    Hosts are placed into zones and linked; links carry service labels.
    The links are an adjacency map, ``host -> {neighbour: labels}``, with
    both endpoints sharing one label set.  Neighbours iterate in
    link-insertion order, which every propagation plan and campaign
    record depends on.
    """

    def __init__(self, name: str = "scada") -> None:
        self.name = name
        self._adj: Dict[str, Dict[str, Set[str]]] = {}
        self._hosts: Dict[str, Host] = {}
        self._zones: Dict[str, Zone] = {}
        self._rules: List[FirewallRule] = []

    @property
    def hosts(self) -> List[Host]:
        """All hosts, in insertion order."""
        return list(self._hosts.values())

    @property
    def host_names(self) -> List[str]:
        """All host names, in insertion order."""
        return list(self._hosts)

    def add_host(self, host: Host, zone: Zone) -> Host:
        """Add a host to a zone.

        Raises:
            ValueError: On duplicate host names.
        """
        if host.name in self._hosts:
            raise ValueError(f"duplicate host {host.name!r}")
        self._hosts[host.name] = host
        self._zones[host.name] = zone
        self._adj[host.name] = {}
        return host

    def host(self, name: str) -> Host:
        """Look up a host.

        Raises:
            KeyError: If absent.
        """
        return self._hosts[name]

    def zone_of(self, name: str) -> Zone:
        """Zone of host ``name``."""
        return self._zones[name]

    def hosts_in_zone(self, zone: Zone) -> List[Host]:
        """Hosts placed in ``zone``."""
        return [h for h in self._hosts.values() if self._zones[h.name] == zone]

    def hosts_with_role(self, role: HostRole) -> List[Host]:
        """Hosts with the given role."""
        return [h for h in self._hosts.values() if h.role == role]

    def connect(self, a: str, b: str, services: Sequence[str] = ("*",)) -> None:
        """Link two hosts, carrying the given service labels.

        Re-linking a linked pair replaces the labels and keeps the link's
        place in both hosts' neighbour order.

        Raises:
            KeyError: If either host is unknown.
        """
        if a not in self._hosts or b not in self._hosts:
            missing = a if a not in self._hosts else b
            raise KeyError(f"unknown host {missing!r}")
        labels = set(services)
        self._adj[a][b] = labels
        self._adj[b][a] = labels

    def allow(self, source: Zone, destination: Zone, service: str = "*") -> None:
        """Add a (symmetric-use) firewall allow rule for a zone crossing."""
        self._rules.append(FirewallRule(source, destination, service))

    def link_services(self, a: str, b: str) -> Set[str]:
        """Service labels on the a-b link (empty set when unlinked)."""
        return set(self._adj.get(a, {}).get(b, ()))

    def flow_allowed(self, source: str, destination: str, service: str) -> bool:
        """Whether a direct flow is possible.

        The hosts must be linked, the link must carry the service (or
        ``"*"``), and — when the hosts are in different zones — some
        firewall rule must whitelist the crossing.
        """
        services = self._adj.get(source, {}).get(destination)
        if not services:
            return False
        if "*" not in services and service not in services:
            return False
        src_zone = self._zones[source]
        dst_zone = self._zones[destination]
        if src_zone == dst_zone:
            return True
        return any(r.permits(src_zone, dst_zone, service) for r in self._rules)

    def _links(self, name: str) -> Dict[str, Set[str]]:
        """Neighbour map of ``name``.

        Raises:
            KeyError: If the host is unknown.
        """
        try:
            return self._adj[name]
        except KeyError:
            raise KeyError(f"unknown host {name!r}") from None

    def neighbors(self, name: str) -> List[str]:
        """Directly linked hosts, in link-insertion order.

        Raises:
            KeyError: If the host is unknown.
        """
        return list(self._links(name))

    def reachable_targets(self, source: str, service: str) -> List[str]:
        """Hosts one hop away reachable with ``service`` from ``source``.

        Raises:
            KeyError: If ``source`` is unknown.
        """
        return [
            other
            for other in self._links(source)
            if self.flow_allowed(source, other, service)
        ]

    def attack_surface(
        self, compromised: Iterable[str], service: str
    ) -> List[Tuple[str, str]]:
        """(source, target) pairs the attacker can currently exercise.

        Targets already compromised are excluded.  Sources come in
        first-seen input order, so the list does not depend on string
        hashing.
        """
        sources = list(dict.fromkeys(compromised))
        owned = set(sources)
        pairs: List[Tuple[str, str]] = []
        for source in sources:
            for target in self.reachable_targets(source, service):
                if target not in owned:
                    pairs.append((source, target))
        return pairs

    def shortest_zone_path(self, source: str, target: str) -> Optional[List[str]]:
        """Shortest link path between two hosts (ignoring firewalls).

        Returns ``None`` when no path exists.

        Raises:
            KeyError: If either host is unknown.
        """
        for name in (source, target):
            self._links(name)
        parent: Dict[str, Optional[str]] = {source: None}
        queue = deque([source])
        while queue:
            node = queue.popleft()
            if node == target:
                path = [node]
                while parent[path[-1]] is not None:
                    path.append(parent[path[-1]])
                return path[::-1]
            for neighbor in self._links(node):
                if neighbor not in parent:
                    parent[neighbor] = node
                    queue.append(neighbor)
        return None

    def validate(self) -> List[str]:
        """Sanity-check the topology; returns a list of warnings.

        Checks for isolated hosts and hosts with unfilled role slots.
        """
        warnings: List[str] = []
        for host in self._hosts.values():
            if not self._adj[host.name]:
                warnings.append(f"host {host.name!r} has no links")
            missing = host.missing_slots()
            if missing:
                kinds = ", ".join(k.value for k in missing)
                warnings.append(
                    f"host {host.name!r} missing component slots: {kinds}"
                )
        return warnings
