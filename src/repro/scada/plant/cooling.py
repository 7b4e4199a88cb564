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

from dataclasses import dataclass, field
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
        polling period.

        Args:
            registers: The PLC register image (mutated in place).
            dt: Time step in seconds.
        """
        if dt > self.MAX_SUBSTEP:
            remaining = dt
            while remaining > 1e-9:
                sub = min(self.MAX_SUBSTEP, remaining)
                self._advance(registers, sub)
                remaining -= sub
            return
        self._advance(registers, dt)

    def _advance(self, registers: Dict[int, int], dt: float) -> None:
        """One explicit integration step of ``dt <= MAX_SUBSTEP`` seconds."""
        cfg = self.config
        n_crac_on = max(0, min(registers.get(REG_CRAC_ENABLE, 0), cfg.n_crac))
        pump_on = registers.get(REG_PUMP_ENABLE, 0) > 0
        setpoint = registers.get(REG_CHILLER_SP, int(cfg.nominal_setpoint * 10)) / 10.0

        # CRAC heat transfer: proportional to the room/loop temperature
        # approach, saturating at unit capacity; zero without the pump.
        if pump_on and n_crac_on > 0:
            approach = self.room.temperature - self.loop.temperature
            per_unit = max(0.0, min(cfg.crac_capacity_kw, 10.0 * approach))
            crac_kw = per_unit * n_crac_on
        else:
            crac_kw = 0.0

        # Chiller: drives the loop toward the setpoint, capacity-limited.
        # A sabotaged (raised) setpoint makes the chiller idle while the
        # loop heats up.
        if self.loop.temperature > setpoint:
            overshoot = self.loop.temperature - setpoint
            chiller_kw = min(cfg.chiller_capacity_kw, 150.0 * overshoot)
        else:
            chiller_kw = 0.0

        self.room.step(heat_in_kw=cfg.it_load_kw, heat_out_kw=crac_kw, dt=dt)
        self.loop.step(heat_in_kw=crac_kw, heat_out_kw=chiller_kw, dt=dt)
        self.time += dt

        registers[REG_ROOM_TEMP] = max(0, int(self.room.temperature * 10))
        registers[REG_LOOP_TEMP] = max(0, int(self.loop.temperature * 10))
        if not self.record_history:
            return
        self.history.append(
            {
                "time": self.time,
                "room_temp": self.room.temperature,
                "loop_temp": self.loop.temperature,
                "crac_kw": crac_kw,
                "chiller_kw": chiller_kw,
            }
        )

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

    def make_damage_model(self) -> DamageModel:
        """Overheat damage with the module defaults."""
        return DamageModel()
