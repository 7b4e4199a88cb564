"""Command-and-control channel.

Stuxnet *"communicates with a remote command and control server"*.  The
channel beacons periodically from compromised hosts in outward-facing
zones; every beacon is a detection opportunity for network monitoring,
with a catch probability that depends on the firewall variant deployed at
the perimeter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.diversity.catalog import VariantCatalog
from repro.scada.components import ComponentKind
from repro.scada.network import SCADANetwork, Zone


@dataclass
class C2Channel:
    """Periodic beaconing with per-beacon detection.

    Attributes:
        beacon_interval: Time between beacons.
        base_detection_probability: Per-beacon detection probability when
            only a basic perimeter is present.
    """

    beacon_interval: float = 4.0
    base_detection_probability: float = 0.02

    def __post_init__(self) -> None:
        if self.beacon_interval <= 0:
            raise ValueError("beacon_interval must be > 0")
        if not 0.0 <= self.base_detection_probability <= 1.0:
            raise ValueError("base_detection_probability must be in [0, 1]")

    def detection_probability(
        self, network: SCADANetwork, catalog: VariantCatalog
    ) -> float:
        """Per-beacon detection probability given the deployed perimeter.

        A deep-packet-inspection firewall variant (low ``fw_bypass``
        exploitability) raises the catch rate: we scale the base
        probability by ``(1 - fw_bypass)`` lift of the *best* firewall
        deployed.
        """
        best_bypass = 1.0
        for host in network.hosts:
            variant = host.variant_of(ComponentKind.FIREWALL_SOFTWARE)
            if variant is not None:
                bypass = catalog.success_probability(
                    ComponentKind.FIREWALL_SOFTWARE, variant, "fw_bypass"
                )
                best_bypass = min(best_bypass, bypass)
        lift = 1.0 + 4.0 * (1.0 - best_bypass)
        return min(1.0, self.base_detection_probability * lift)

    def first_detection_time(
        self,
        start_time: float,
        horizon: float,
        network: SCADANetwork,
        catalog: VariantCatalog,
        rng: np.random.Generator,
    ) -> Optional[float]:
        """Sample the first beacon-detection time after ``start_time``.

        Returns:
            Detection time, or None if no beacon is caught before the
            horizon.
        """
        p = self.detection_probability(network, catalog)
        return self.sample_detection_time(start_time, horizon, p, rng)

    def sample_detection_time(
        self,
        start_time: float,
        horizon: float,
        p: float,
        rng: np.random.Generator,
    ) -> Optional[float]:
        """:meth:`first_detection_time` with the per-beacon detection
        probability ``p`` already computed (a campaign computes it once,
        not at every replication's first activation)."""
        if p <= 0.0:
            return None
        t = start_time
        while True:
            t += self.beacon_interval
            if t > horizon:
                return None
            if rng.random() < p:
                return t
