"""Bit-identity of the fused cooling-plant step and independence of plant
clones.

:meth:`CoolingPlant.step` integrates all substeps of one call in a single
loop over local floats.  It must reproduce, exactly (``==``, not
approximately), the per-substep integration it replaced: one
:meth:`ThermalNode.step` per node and substep.  That integration is kept
here verbatim as the reference.

:meth:`PhysicalProcess.clone` backs the healthy trajectory's per-tick
snapshots and the state a replication resumes from at sabotage, so a
clone must never share mutable state with its original.
"""

from typing import Dict

import pytest

from repro.attacks.campaign import CampaignConfig, _HealthyTickTrajectory
from repro.scada.plant.cooling import (
    REG_CHILLER_SP,
    REG_CRAC_ENABLE,
    REG_LOOP_TEMP,
    REG_PUMP_ENABLE,
    REG_ROOM_TEMP,
    CoolingPlant,
    CoolingPlantConfig,
)
from repro.scada.plant.damage import DamageModel
from repro.scada.plant.feeder import PowerFeeder
from repro.scada.plant.process import PhysicalProcess

DTS = (1.0, 30.0, 45.0, 1800.0, 1801.5)
STEPS = 40


def reference_step(plant: CoolingPlant, registers: Dict[int, int], dt: float):
    """The per-substep integration the fused step replaced."""
    if dt > plant.MAX_SUBSTEP:
        remaining = dt
        while remaining > 1e-9:
            sub = min(plant.MAX_SUBSTEP, remaining)
            reference_advance(plant, registers, sub)
            remaining -= sub
        return
    reference_advance(plant, registers, dt)


def reference_advance(plant: CoolingPlant, registers: Dict[int, int], dt):
    cfg = plant.config
    n_crac_on = max(0, min(registers.get(REG_CRAC_ENABLE, 0), cfg.n_crac))
    pump_on = registers.get(REG_PUMP_ENABLE, 0) > 0
    setpoint = (
        registers.get(REG_CHILLER_SP, int(cfg.nominal_setpoint * 10)) / 10.0
    )
    if pump_on and n_crac_on > 0:
        approach = plant.room.temperature - plant.loop.temperature
        per_unit = max(0.0, min(cfg.crac_capacity_kw, 10.0 * approach))
        crac_kw = per_unit * n_crac_on
    else:
        crac_kw = 0.0
    if plant.loop.temperature > setpoint:
        overshoot = plant.loop.temperature - setpoint
        chiller_kw = min(cfg.chiller_capacity_kw, 150.0 * overshoot)
    else:
        chiller_kw = 0.0
    plant.room.step(heat_in_kw=cfg.it_load_kw, heat_out_kw=crac_kw, dt=dt)
    plant.loop.step(heat_in_kw=crac_kw, heat_out_kw=chiller_kw, dt=dt)
    plant.time += dt
    registers[REG_ROOM_TEMP] = max(0, int(plant.room.temperature * 10))
    registers[REG_LOOP_TEMP] = max(0, int(plant.loop.temperature * 10))
    if plant.record_history:
        plant.history.append(
            {
                "time": plant.time,
                "room_temp": plant.room.temperature,
                "loop_temp": plant.loop.temperature,
                "crac_kw": crac_kw,
                "chiller_kw": chiller_kw,
            }
        )


def healthy(registers):
    pass


def degraded(registers):
    """Two CRACs and a raised setpoint: unsaturated CRAC transfer."""
    registers[REG_CRAC_ENABLE] = 2
    registers[REG_CHILLER_SP] = 120


def sabotaged(registers):
    CoolingPlant().sabotage(registers)


CONTROLS = {"healthy": healthy, "degraded": degraded, "sabotaged": sabotaged}

CONFIGS = {
    "default": CoolingPlantConfig,
    # Room colder than the loop: the CRAC approach is negative.
    "inverted": lambda: CoolingPlantConfig(
        initial_room_temp=5.0, initial_loop_temp=10.0
    ),
}


def state(plant: CoolingPlant):
    return (plant.room.temperature, plant.loop.temperature, plant.time)


@pytest.mark.parametrize("record_history", (False, True))
@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("controls", sorted(CONTROLS))
@pytest.mark.parametrize("dt", DTS)
def test_fused_step_matches_per_substep_reference(
    dt, controls, config, record_history
):
    fused = CoolingPlant(CONFIGS[config](), record_history=record_history)
    reference = CoolingPlant(CONFIGS[config](), record_history=record_history)
    fused_registers = fused.default_registers()
    reference_registers = reference.default_registers()
    CONTROLS[controls](fused_registers)
    CONTROLS[controls](reference_registers)
    for _ in range(STEPS):
        fused.step(fused_registers, dt)
        reference_step(reference, reference_registers, dt)
        assert state(fused) == state(reference)
        assert fused_registers == reference_registers
    assert fused.history == reference.history
    if record_history:
        substeps = -(-dt // CoolingPlant.MAX_SUBSTEP)
        assert len(fused.history) == STEPS * substeps


def test_sabotage_mid_run_matches_reference():
    fused, reference = CoolingPlant(), CoolingPlant()
    fused_registers = fused.default_registers()
    reference_registers = reference.default_registers()
    for tick in range(60):
        if tick == 20:
            fused.sabotage(fused_registers)
            reference.sabotage(reference_registers)
        fused.step(fused_registers, 1800.0)
        reference_step(reference, reference_registers, 1800.0)
        assert state(fused) == state(reference)
        assert fused_registers == reference_registers
    assert fused.history == reference.history
    assert fused.room.temperature > fused.alarm_threshold


@pytest.mark.parametrize("dt", (0.0, -1.0))
def test_nonpositive_dt_rejected_without_side_effects(dt):
    plant = CoolingPlant()
    registers = plant.default_registers()
    before = (state(plant), dict(registers))
    with pytest.raises(ValueError):
        plant.step(registers, dt)
    assert (state(plant), registers) == before
    assert plant.history == []


# ------------------------------ clones ------------------------------


class _LevelPlant(PhysicalProcess):
    """A minimal user plant with list state; it keeps the deep-copy
    :meth:`PhysicalProcess.clone` default."""

    def __init__(self):
        self.levels = [0.0]

    def default_registers(self):
        return {1: 0}

    def step(self, registers, dt):
        self.levels.append(self.levels[-1] + dt)
        registers[1] = int(self.levels[-1])

    def stress_level(self):
        return self.levels[-1]

    def sabotage(self, registers):
        registers[1] = 10**6

    @property
    def monitored_register(self):
        return 1

    @property
    def alarm_scale(self):
        return 1.0

    @property
    def alarm_threshold(self):
        return 10**9

    def make_damage_model(self):
        return DamageModel()


def _history_plant():
    return CoolingPlant(record_history=True)


PLANTS = {
    "cooling": _history_plant,
    "feeder": PowerFeeder,
    "user": _LevelPlant,
}


def fingerprint(plant) -> str:
    """Every attribute of the plant, floats exactly (``repr``)."""
    return repr(sorted(vars(plant).items()))


@pytest.mark.parametrize("name", sorted(PLANTS))
def test_clone_is_independent_of_trajectory_snapshot(name):
    trajectory = _HealthyTickTrajectory(
        CampaignConfig(
            horizon=10.0, tick_interval=0.5, plant_factory=PLANTS[name]
        )
    )
    trajectory.scan_to(6)
    snapshot = trajectory.snapshots[3][0]
    pinned = fingerprint(snapshot)
    restored = trajectory.plant_at(3)
    assert restored is not snapshot
    assert fingerprint(restored) == pinned
    registers = trajectory.registers_at(3)
    restored.sabotage(registers)
    for _ in range(5):
        restored.step(registers, 1800.0)
    assert fingerprint(restored) != pinned
    assert fingerprint(snapshot) == pinned
    assert fingerprint(trajectory.plant_at(3)) == pinned
    # Later ticks of the shared probe do not reach back into a snapshot.
    trajectory.scan_to(12)
    assert fingerprint(snapshot) == pinned


def test_builtin_clones_share_config_only():
    cooling = _history_plant()
    cooling.step(cooling.default_registers(), 1800.0)
    twin = cooling.clone()
    assert twin.config is cooling.config
    assert twin.room is not cooling.room
    assert twin.loop is not cooling.loop
    assert twin.history == cooling.history
    assert twin.history is not cooling.history
    assert twin.history[0] is not cooling.history[0]
    feeder = PowerFeeder()
    assert feeder.clone().config is feeder.config


def test_user_plant_uses_deepcopy_default():
    plant = _LevelPlant()
    assert type(plant).clone is PhysicalProcess.clone
    twin = plant.clone()
    twin.step({}, 5.0)
    assert plant.levels == [0.0]
    assert twin.levels == [0.0, 5.0]
