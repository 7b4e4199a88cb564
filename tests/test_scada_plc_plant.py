"""Tests for PLCs, the cooling plant and damage model."""

import pytest

from repro.scada.plant.cooling import (
    CoolingPlant,
    CoolingPlantConfig,
    REG_CHILLER_SP,
    REG_CRAC_ENABLE,
    REG_LOOP_TEMP,
    REG_PUMP_ENABLE,
    REG_ROOM_TEMP,
)
from repro.scada.plant.damage import DamageModel
from repro.scada.plant.thermal import ThermalNode
from repro.scada.plc import (
    LadderProgram,
    PLC,
    Rung,
    sabotage_program,
    threshold_controller,
)
from repro.scada.protocol import (
    FunctionCode,
    ModbusFrame,
    ProtocolError,
    STANDARD_DIALECT,
    encode_frame,
    remapped_dialect,
)


class TestThermalNode:
    def test_heating_raises_temperature(self):
        node = ThermalNode("n", heat_capacity=100.0, temperature=20.0)
        node.step(heat_in_kw=10.0, heat_out_kw=0.0, dt=10.0)
        assert node.temperature == pytest.approx(21.0)

    def test_cooling_lowers_temperature(self):
        node = ThermalNode("n", heat_capacity=100.0, temperature=20.0)
        node.step(heat_in_kw=0.0, heat_out_kw=5.0, dt=10.0)
        assert node.temperature == pytest.approx(19.5)

    def test_ambient_coupling_pulls_toward_ambient(self):
        node = ThermalNode(
            "n", heat_capacity=100.0, temperature=50.0,
            ambient_coupling=1.0, ambient_temperature=20.0,
        )
        node.step(0.0, 0.0, dt=1.0)
        assert node.temperature < 50.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            ThermalNode("n", heat_capacity=0.0, temperature=20.0)
        node = ThermalNode("n", heat_capacity=1.0, temperature=20.0)
        with pytest.raises(ValueError):
            node.step(0.0, 0.0, dt=0.0)


class TestCoolingPlant:
    def test_healthy_plant_reaches_equilibrium(self):
        plant = CoolingPlant()
        registers = plant.default_registers()
        plant.run(registers, duration=4 * 3600, dt=10.0)
        assert plant.room.temperature < 30.0

    def test_disabled_cooling_overheats(self):
        plant = CoolingPlant()
        registers = plant.default_registers()
        registers[REG_CRAC_ENABLE] = 0
        registers[REG_PUMP_ENABLE] = 0
        plant.run(registers, duration=3600, dt=10.0)
        assert plant.room.temperature > 40.0

    def test_raised_setpoint_degrades_cooling(self):
        healthy = CoolingPlant()
        r1 = healthy.default_registers()
        healthy.run(r1, duration=2 * 3600, dt=10.0)

        sabotaged = CoolingPlant()
        r2 = sabotaged.default_registers()
        r2[REG_CHILLER_SP] = 500  # 50 °C setpoint idles the chiller
        sabotaged.run(r2, duration=2 * 3600, dt=10.0)
        assert sabotaged.loop.temperature > healthy.loop.temperature

    def test_registers_mirror_measurements(self):
        plant = CoolingPlant()
        registers = plant.default_registers()
        plant.step(registers, dt=10.0)
        assert registers[REG_ROOM_TEMP] == int(plant.room.temperature * 10)
        assert registers[REG_LOOP_TEMP] == int(plant.loop.temperature * 10)

    def test_large_dt_is_substepped_and_stable(self):
        plant = CoolingPlant()
        registers = plant.default_registers()
        plant.run(registers, duration=2 * 3600, dt=900.0)
        assert 5.0 < plant.room.temperature < 30.0  # no blow-up

    def test_large_dt_equals_its_substeps(self):
        # 900.5 s: thirty MAX_SUBSTEP slices plus a 0.5 s remainder.
        whole, sliced = CoolingPlant(), CoolingPlant()
        reg_whole = whole.default_registers()
        reg_sliced = sliced.default_registers()
        reg_whole[REG_PUMP_ENABLE] = reg_sliced[REG_PUMP_ENABLE] = 0
        whole.step(reg_whole, dt=900.5)
        remaining = 900.5
        while remaining > 1e-9:
            sub = min(CoolingPlant.MAX_SUBSTEP, remaining)
            sliced.step(reg_sliced, dt=sub)
            remaining -= sub
        assert len(whole.history) == 31
        assert whole.history == sliced.history
        assert reg_whole == reg_sliced

    def test_history_recording_optional(self):
        plant = CoolingPlant(record_history=False)
        registers = plant.default_registers()
        plant.run(registers, duration=600, dt=10.0)
        assert plant.history == []


class TestDamageModel:
    def test_no_damage_below_safe_temperature(self):
        model = DamageModel()
        model.update(temperature=30.0, dt=1000.0, now=1000.0)
        assert model.damage == 0.0
        assert not model.impaired

    def test_damage_accumulates_above_threshold(self):
        model = DamageModel()
        model.update(temperature=45.0, dt=300.0, now=300.0)
        assert model.damage == pytest.approx(300.0 / 600.0)

    def test_impairment_time_recorded_once(self):
        model = DamageModel()
        model.update(temperature=45.0, dt=700.0, now=700.0)
        assert model.impaired
        first = model.impairment_time
        model.update(temperature=45.0, dt=100.0, now=800.0)
        assert model.impairment_time == first

    def test_hotter_damages_faster(self):
        cool = DamageModel()
        hot = DamageModel()
        cool.update(40.0, 100.0, 100.0)
        hot.update(60.0, 100.0, 100.0)
        assert hot.damage > cool.damage

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            DamageModel(safe_temperature=50.0, critical_temperature=40.0)
        model = DamageModel()
        with pytest.raises(ValueError):
            model.update(50.0, dt=0.0, now=0.0)


class TestPLC:
    def make_plc(self):
        program = threshold_controller(
            "cooling", sensor_register=100, actuator_register=200,
            on_threshold=250, off_threshold=220,
        )
        return PLC("plc0", unit=1, program=program)

    def test_scan_cycle_applies_control_law(self):
        plc = self.make_plc()
        plc.write_register(100, 300)  # hot
        plc.scan_cycle()
        assert plc.read_register(200) == 1
        plc.write_register(100, 200)  # cool
        plc.scan_cycle()
        assert plc.read_register(200) == 0

    def test_hysteresis_keeps_state_between_thresholds(self):
        plc = self.make_plc()
        plc.write_register(100, 300)
        plc.scan_cycle()
        plc.write_register(100, 235)  # inside the dead band
        plc.scan_cycle()
        assert plc.read_register(200) == 1

    def test_read_write_over_protocol(self):
        plc = self.make_plc()
        plc.write_register(100, 42)
        frame = ModbusFrame(
            unit=1, function=FunctionCode.READ_HOLDING_REGISTERS,
            address=100, count=1,
        )
        response = plc.handle_frame(
            encode_frame(frame, STANDARD_DIALECT), STANDARD_DIALECT
        )
        assert response.values == (42,)

    def test_write_over_protocol(self):
        plc = self.make_plc()
        frame = ModbusFrame(
            unit=1, function=FunctionCode.WRITE_SINGLE_REGISTER,
            address=300, values=(7,),
        )
        plc.handle_frame(encode_frame(frame, STANDARD_DIALECT),
                         STANDARD_DIALECT)
        assert plc.read_register(300) == 7

    def test_wrong_dialect_frame_rejected(self):
        plc = self.make_plc()
        frame = ModbusFrame(
            unit=1, function=FunctionCode.READ_HOLDING_REGISTERS,
            address=100, count=1,
        )
        raw = encode_frame(frame, remapped_dialect("attacker"))
        with pytest.raises(ProtocolError):
            plc.handle_frame(raw, remapped_dialect("attacker"))

    def test_wrong_unit_rejected(self):
        plc = self.make_plc()
        frame = ModbusFrame(
            unit=9, function=FunctionCode.READ_HOLDING_REGISTERS,
            address=100, count=1,
        )
        with pytest.raises(ProtocolError):
            plc.handle_frame(encode_frame(frame, STANDARD_DIALECT),
                             STANDARD_DIALECT)

    def test_reprogram_tracks_compromise(self):
        plc = self.make_plc()
        assert not plc.compromised
        plc.load_program(sabotage_program("evil", actuator_register=200,
                                          forced_value=0))
        assert plc.compromised
        assert plc.reprogram_count == 1
        plc.restore_program()
        assert not plc.compromised

    def test_sabotage_program_forces_actuator_and_spoofs(self):
        plc = self.make_plc()
        plc.load_program(
            sabotage_program(
                "evil", actuator_register=200, forced_value=0,
                spoof_register=100, spoof_value=230,
            )
        )
        plc.write_register(100, 400)  # actually very hot
        plc.scan_cycle()
        assert plc.read_register(200) == 0  # cooling forced off
        assert plc.read_register(100) == 230  # reading spoofed

    def test_threshold_controller_validation(self):
        with pytest.raises(ValueError):
            threshold_controller("bad", 100, 200, on_threshold=10,
                                 off_threshold=20)

    def test_register_value_range_enforced(self):
        plc = self.make_plc()
        with pytest.raises(ValueError):
            plc.write_register(0, 100000)
