"""The physical-process interface the campaign simulator drives.

The paper's attack end-state is *device impairment* of whatever physical
process the SCADA system controls — a data-center cooling loop in the
SCoPE case study, "a power distribution system" in the introduction's
smart-grid motivation.  :class:`PhysicalProcess` abstracts the contract
the campaign simulator needs so both plants (and user-defined ones) plug
into the same attack machinery.
"""

from __future__ import annotations

import copy
from abc import ABC, abstractmethod
from typing import Dict

from repro.scada.plant.damage import DamageModel


class PhysicalProcess(ABC):
    """A register-driven physical process under SCADA control."""

    @abstractmethod
    def default_registers(self) -> Dict[int, int]:
        """A healthy initial register image (controls + measurements)."""

    @abstractmethod
    def step(self, registers: Dict[int, int], dt: float) -> None:
        """Advance the process ``dt`` seconds under the register controls.

        Implementations read control registers, update internal state and
        write measurement registers back.
        """

    @abstractmethod
    def stress_level(self) -> float:
        """The scalar stress the damage model integrates.

        For the cooling plant this is the room temperature (°C); for the
        power feeder, the worst line loading (percent of rating).
        """

    @abstractmethod
    def sabotage(self, registers: Dict[int, int]) -> None:
        """Apply the malicious control writes of a reprogrammed controller."""

    @property
    @abstractmethod
    def monitored_register(self) -> int:
        """The measurement register the SCADA master watches (and the
        payload spoofs)."""

    @property
    @abstractmethod
    def alarm_scale(self) -> float:
        """Multiplier from raw register value to engineering units."""

    @property
    @abstractmethod
    def alarm_threshold(self) -> float:
        """Master alarm threshold in engineering units."""

    @abstractmethod
    def make_damage_model(self) -> DamageModel:
        """A damage model calibrated to this process's stress scale."""

    def clone(self) -> "PhysicalProcess":
        """An independent copy of the current process state.

        The campaign simulator snapshots the healthy plant once per tick
        and restores a replication's plant from a snapshot at sabotage,
        so stepping a clone must never change the original (or the other
        way round).  The default is ``copy.deepcopy(self)``; the built-in
        plants override it with a copy of their float state that shares
        the read-only config.  A subclass adding mutable state to one of
        them must extend its ``clone`` to copy that state too.
        """
        return copy.deepcopy(self)
