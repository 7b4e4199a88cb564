"""A medium-voltage distribution feeder (smart-grid scenario).

The paper's introduction asks: *"what if an attacker overloads a power
distribution system by breaking into a power grid?"*.  This plant models
that scenario: a radial feeder with several sections, sectionalizing
breakers, a switchable tie to a neighbouring feeder and a load-shedding
scheme.  The feeder controller (PLC/RTU) keeps section loading under the
thermal rating; the sabotage payload closes the tie (importing the
neighbour's load), blocks load shedding and forces all sections on —
driving line loading far past the rating, which the damage model
integrates into conductor/transformer impairment.

Register map:

====================  =============================================
register              meaning
====================  =============================================
``REG_LOADING``       worst section loading ×10 (% of rating; meas.)
``REG_DEMAND``        current demand ×10 (% of nominal; meas.)
``REG_TIE_CLOSED``    tie breaker to neighbour feeder (0/1)
``REG_SHED_ENABLE``   load-shedding scheme armed (0/1)
``REG_SECTIONS_ON``   number of energized sections (0..n)
====================  =============================================
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.scada.plant.damage import DamageModel
from repro.scada.plant.process import PhysicalProcess

REG_LOADING = 110
REG_DEMAND = 111
REG_TIE_CLOSED = 210
REG_SHED_ENABLE = 211
REG_SECTIONS_ON = 212


@dataclass
class PowerFeederConfig:
    """Feeder parameters.

    Attributes:
        n_sections: Feeder sections (each with its own breaker).
        nominal_demand: Mean demand as a fraction of section rating.
        demand_swing: Amplitude of the diurnal demand swing (fraction).
        demand_period: Period of the demand cycle in seconds (24 h).
        neighbour_load: Extra loading imported when the tie closes
            (fraction of rating).
        shed_trigger: Loading (fraction) above which the shedding scheme
            drops load.
        shed_amount: Demand fraction removed per shedding action.
        overload_rating: Loading (fraction) treated as 100% thermal
            rating for damage purposes.
    """

    n_sections: int = 4
    nominal_demand: float = 0.7
    demand_swing: float = 0.2
    demand_period: float = 86400.0
    neighbour_load: float = 0.45
    shed_trigger: float = 0.95
    shed_amount: float = 0.2
    overload_rating: float = 1.0


class PowerFeeder(PhysicalProcess):
    """The simulated feeder, driven by a register image."""

    def __init__(self, config: Optional[PowerFeederConfig] = None) -> None:
        self.config = config or PowerFeederConfig()
        self.time = 0.0
        self.loading = self.config.nominal_demand
        self.shed_active = 0.0  # cumulative shed demand fraction

    def default_registers(self) -> Dict[int, int]:
        cfg = self.config
        return {
            REG_LOADING: int(self.loading * 1000),
            REG_DEMAND: int(cfg.nominal_demand * 1000),
            REG_TIE_CLOSED: 0,
            REG_SHED_ENABLE: 1,
            REG_SECTIONS_ON: cfg.n_sections,
        }

    def _demand(self) -> float:
        cfg = self.config
        cycle = math.sin(2.0 * math.pi * self.time / cfg.demand_period)
        return max(0.0, cfg.nominal_demand + cfg.demand_swing * cycle)

    def step(self, registers: Dict[int, int], dt: float) -> None:
        """Advance the feeder ``dt`` seconds under the register controls."""
        cfg = self.config
        self.time += dt
        demand = self._demand()

        sections_on = max(
            0, min(registers.get(REG_SECTIONS_ON, cfg.n_sections),
                   cfg.n_sections)
        )
        tie_closed = registers.get(REG_TIE_CLOSED, 0) > 0
        shed_enabled = registers.get(REG_SHED_ENABLE, 0) > 0

        # Demand concentrates on the energized sections; the tie imports
        # the neighbour feeder's load on top.
        if sections_on == 0:
            loading = 0.0
        else:
            concentration = cfg.n_sections / sections_on
            loading = demand * concentration
            if tie_closed:
                loading += cfg.neighbour_load
            loading -= self.shed_active

        # The shedding scheme reacts (when armed) to overload.
        if shed_enabled and loading > cfg.shed_trigger:
            self.shed_active = min(
                self.shed_active + cfg.shed_amount, demand * 0.6
            )
            loading = max(0.0, loading - cfg.shed_amount)
        elif loading < cfg.shed_trigger * 0.8 and self.shed_active > 0.0:
            # Restore shed load gradually when the feeder recovers.
            self.shed_active = max(0.0, self.shed_active - cfg.shed_amount / 2)

        self.loading = max(0.0, loading)
        registers[REG_LOADING] = int(self.loading * 1000)
        registers[REG_DEMAND] = int(demand * 1000)

    def stress_level(self) -> float:
        """Worst loading as percent of rating (100 = at rating)."""
        return 100.0 * self.loading / self.config.overload_rating

    def sabotage(self, registers: Dict[int, int]) -> None:
        """Overload payload: import the neighbour, disarm shedding."""
        registers[REG_TIE_CLOSED] = 1
        registers[REG_SHED_ENABLE] = 0
        registers[REG_SECTIONS_ON] = max(
            1, self.config.n_sections // 2
        )  # concentrate demand on half the sections

    def clone(self) -> "PowerFeeder":
        """A copy of the float state; the config is shared (read-only)."""
        return copy.copy(self)

    @property
    def monitored_register(self) -> int:
        return REG_LOADING

    @property
    def alarm_scale(self) -> float:
        return 0.1  # raw ×10 percent -> percent

    @property
    def alarm_threshold(self) -> float:
        return 110.0  # alarm above 110% of rating

    def make_damage_model(self) -> DamageModel:
        """Conductor thermal damage: accrues above 105%, critical at 140%."""
        return DamageModel(
            safe_temperature=105.0,
            critical_temperature=140.0,
            critical_rate=1.0 / 900.0,  # 15 sustained minutes at critical
        )
