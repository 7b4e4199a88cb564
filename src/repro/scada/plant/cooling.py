"""The data-center cooling loop.

Two coupled thermal nodes — the server room air and the chilled-water
loop — exchanged heat through CRAC units; the chiller extracts heat from
the loop.  Control inputs (chiller setpoint, CRAC/pump enables) live in a
register map mirroring the PLC's registers, so the plant can be driven
directly by :class:`repro.scada.plc.PLC` register images.

Register map (convention used across the library):

====================  =======================================
register              meaning
====================  =======================================
``REG_ROOM_TEMP``     room temperature ×10 (read by master)
``REG_LOOP_TEMP``     chilled-loop temperature ×10
``REG_CRAC_ENABLE``   number of CRAC units enabled (0..n)
``REG_PUMP_ENABLE``   pump on/off
``REG_CHILLER_SP``    chiller setpoint ×10 (°C)
====================  =======================================
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.scada.plant.damage import DamageModel
from repro.scada.plant.process import PhysicalProcess
from repro.scada.plant.thermal import ThermalNode

REG_ROOM_TEMP = 100
REG_LOOP_TEMP = 101
REG_CRAC_ENABLE = 200
REG_PUMP_ENABLE = 201
REG_CHILLER_SP = 202


@dataclass
class CoolingPlantConfig:
    """Physical parameters of the cooling loop.

    Defaults approximate a mid-size university data center (SCoPE-like):
    ~400 kW IT load, 6 CRAC units of 100 kW each, a chiller sized with
    ~50% headroom.

    Attributes:
        it_load_kw: Constant IT heat load (kW).
        n_crac: Number of CRAC units.
        crac_capacity_kw: Per-CRAC heat-moving capacity (kW) at nominal
            approach temperature.
        chiller_capacity_kw: Chiller heat-rejection capacity (kW).
        room_heat_capacity: Server-room thermal mass (kJ/K).
        loop_heat_capacity: Water-loop thermal mass (kJ/K).
        nominal_setpoint: Chiller leaving-water setpoint (°C).
        initial_room_temp / initial_loop_temp: Starting temperatures (°C).
    """

    it_load_kw: float = 400.0
    n_crac: int = 6
    crac_capacity_kw: float = 100.0
    chiller_capacity_kw: float = 600.0
    room_heat_capacity: float = 8000.0
    loop_heat_capacity: float = 20000.0
    nominal_setpoint: float = 7.0
    initial_room_temp: float = 22.0
    initial_loop_temp: float = 7.0


class CoolingPlant(PhysicalProcess):
    """The simulated cooling loop, driven by a register image.

    Args:
        config: Physical parameters.
        record_history: Keep a per-step history (disable for long
            Monte-Carlo batches).
    """

    #: Largest internally-used integration step (s); larger ``dt`` values
    #: are split to keep the explicit integration stable.
    MAX_SUBSTEP = 30.0

    def __init__(
        self,
        config: Optional[CoolingPlantConfig] = None,
        record_history: bool = True,
    ) -> None:
        self.config = config or CoolingPlantConfig()
        self.record_history = record_history
        cfg = self.config
        self.room = ThermalNode(
            "server_room",
            heat_capacity=cfg.room_heat_capacity,
            temperature=cfg.initial_room_temp,
            ambient_coupling=0.5,
        )
        self.loop = ThermalNode(
            "chilled_loop",
            heat_capacity=cfg.loop_heat_capacity,
            temperature=cfg.initial_loop_temp,
            ambient_coupling=0.05,
        )
        self.time = 0.0
        self.history: List[Dict[str, float]] = []

    def default_registers(self) -> Dict[int, int]:
        """A register image with everything healthy and enabled."""
        cfg = self.config
        return {
            REG_ROOM_TEMP: int(self.room.temperature * 10),
            REG_LOOP_TEMP: int(self.loop.temperature * 10),
            REG_CRAC_ENABLE: cfg.n_crac,
            REG_PUMP_ENABLE: 1,
            REG_CHILLER_SP: int(cfg.nominal_setpoint * 10),
        }

    def step(self, registers: Dict[int, int], dt: float = 1.0) -> None:
        """Advance the plant ``dt`` seconds under the given controls.

        Reads control registers, computes heat flows, updates the two
        thermal nodes, and writes the measured temperatures back into the
        register image (the PLC's input registers).

        Steps longer than :data:`MAX_SUBSTEP` are split internally so the
        explicit integration stays stable regardless of the caller's
        polling period.  All substeps run in one loop over local floats,
        with the float operations of :meth:`ThermalNode.step` in the same
        order, so the result is bit-identical to stepping both nodes one
        substep at a time.  The control registers are read once: nothing
        in a step writes them.

        Args:
            registers: The PLC register image (mutated in place).
            dt: Time step in seconds.

        Raises:
            ValueError: If ``dt <= 0``.
        """
        if dt <= 0:
            raise ValueError(f"dt must be > 0, got {dt}")
        cfg = self.config
        room = self.room
        loop = self.loop
        n_crac_on = max(0, min(registers.get(REG_CRAC_ENABLE, 0), cfg.n_crac))
        pump_on = registers.get(REG_PUMP_ENABLE, 0) > 0
        setpoint = (
            registers.get(REG_CHILLER_SP, int(cfg.nominal_setpoint * 10)) / 10.0
        )
        crac_on = pump_on and n_crac_on > 0
        crac_capacity = cfg.crac_capacity_kw
        chiller_capacity = cfg.chiller_capacity_kw
        it_load = cfg.it_load_kw
        room_temp = room.temperature
        room_coupling = room.ambient_coupling
        room_ambient = room.ambient_temperature
        room_capacity = room.heat_capacity
        loop_temp = loop.temperature
        loop_coupling = loop.ambient_coupling
        loop_ambient = loop.ambient_temperature
        loop_capacity = loop.heat_capacity
        history = self.history if self.record_history else None
        time = self.time
        remaining = dt
        # The clamps below are ``min(cap, x)`` / ``max(0.0, x)`` written
        # as comparisons: the same results, without a builtin call each.
        while True:
            sub = self.MAX_SUBSTEP
            if remaining < sub:
                sub = remaining
            # CRAC heat transfer: proportional to the room/loop temperature
            # approach, saturating at unit capacity; zero without the pump.
            if crac_on:
                per_unit = 10.0 * (room_temp - loop_temp)
                if not per_unit < crac_capacity:
                    per_unit = crac_capacity
                if not per_unit > 0.0:
                    per_unit = 0.0
                crac_kw = per_unit * n_crac_on
            else:
                crac_kw = 0.0
            # Chiller: drives the loop toward the setpoint, capacity-limited.
            # A sabotaged (raised) setpoint makes the chiller idle while the
            # loop heats up.
            if loop_temp > setpoint:
                chiller_kw = 150.0 * (loop_temp - setpoint)
                if not chiller_kw < chiller_capacity:
                    chiller_kw = chiller_capacity
            else:
                chiller_kw = 0.0
            # ThermalNode.step for each node, operation for operation.
            room_flow = room_coupling * (room_ambient - room_temp)
            room_net = it_load - crac_kw + room_flow
            room_temp += room_net * sub / room_capacity
            loop_flow = loop_coupling * (loop_ambient - loop_temp)
            loop_net = crac_kw - chiller_kw + loop_flow
            loop_temp += loop_net * sub / loop_capacity
            time += sub
            if history is not None:
                history.append(
                    {
                        "time": time,
                        "room_temp": room_temp,
                        "loop_temp": loop_temp,
                        "crac_kw": crac_kw,
                        "chiller_kw": chiller_kw,
                    }
                )
            remaining -= sub
            if not remaining > 1e-9:
                break
        room.temperature = room_temp
        loop.temperature = loop_temp
        self.time = time
        registers[REG_ROOM_TEMP] = max(0, int(room_temp * 10))
        registers[REG_LOOP_TEMP] = max(0, int(loop_temp * 10))

    def run(
        self, registers: Dict[int, int], duration: float, dt: float = 1.0
    ) -> None:
        """Step the plant for ``duration`` seconds."""
        steps = int(duration / dt)
        for _ in range(steps):
            self.step(registers, dt)

    # ------------------------- PhysicalProcess -------------------------

    def stress_level(self) -> float:
        """Room temperature (°C) — what overheat damage integrates."""
        return self.room.temperature

    def sabotage(self, registers: Dict[int, int]) -> None:
        """Stuxnet-style payload: kill the cooling, idle the chiller."""
        registers[REG_CRAC_ENABLE] = 0
        registers[REG_PUMP_ENABLE] = 0
        registers[REG_CHILLER_SP] = 500  # 50 °C setpoint

    @property
    def monitored_register(self) -> int:
        return REG_ROOM_TEMP

    @property
    def alarm_scale(self) -> float:
        return 0.1  # raw ×10 °C -> °C

    @property
    def alarm_threshold(self) -> float:
        return 35.0

    def clone(self) -> "CoolingPlant":
        """A copy with its own thermal nodes and history; the config is
        shared (read-only)."""
        twin = copy.copy(self)
        twin.room = copy.copy(self.room)
        twin.loop = copy.copy(self.loop)
        twin.history = [dict(row) for row in self.history]
        return twin

    def make_damage_model(self) -> DamageModel:
        """Overheat damage with the module defaults."""
        return DamageModel()
