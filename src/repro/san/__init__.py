"""Stochastic Activity Networks (SAN).

The paper's SCoPE case study is modeled *"by means of the stochastic
activity networks (SAN) formalism"*.  This package implements that
formalism from scratch:

* :mod:`repro.san.model` — places, timed/instantaneous activities, case
  probabilities, input gates (predicate + function) and output gates.
* :mod:`repro.san.simulator` — discrete-event execution with the usual
  SAN activation/abort/completion semantics.
* :mod:`repro.san.rewards` — rate and impulse reward variables plus
  Monte-Carlo estimation with confidence intervals.
* :mod:`repro.san.ctmc` — exact CTMC conversion for all-exponential SANs
  (state-space exploration, transient solution, absorption analysis);
  used to validate the simulator.
* :mod:`repro.san.builder` — a fluent builder for terse model definitions.
* :mod:`repro.san.compiled` — the compiled lowering
  (``SANModel.compile()``) the simulator executes.
* :mod:`repro.san.batched` — the vectorized engine
  (:class:`SANBatchEngine`) that runs many replications per step.
"""

from repro.san.batched import PlaceThreshold, SANBatchEngine
from repro.san.compiled import CompiledSAN
from repro.san.ctmc import CTMC, poisson_weights, san_to_ctmc
from repro.san.model import (
    Case,
    InputGate,
    InstantaneousActivity,
    OutputGate,
    SANMarking,
    SANModel,
    TimedActivity,
)
from repro.san.builder import SANBuilder
from repro.san.rewards import (
    ImpulseReward,
    MonteCarloEstimate,
    RateReward,
    RewardEstimator,
)
from repro.san.simulator import SANSimulator, SimulationRun

__all__ = [
    "CTMC",
    "Case",
    "CompiledSAN",
    "ImpulseReward",
    "InputGate",
    "InstantaneousActivity",
    "MonteCarloEstimate",
    "OutputGate",
    "PlaceThreshold",
    "RateReward",
    "SANBatchEngine",
    "RewardEstimator",
    "SANBuilder",
    "SANMarking",
    "SANModel",
    "SANSimulator",
    "SimulationRun",
    "TimedActivity",
    "poisson_weights",
    "san_to_ctmc",
]
