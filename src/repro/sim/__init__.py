"""Discrete-event simulation kernel.

This package is the event loop of the attack-campaign simulator
(:mod:`repro.attacks.campaign`).  The stochastic-activity-network solver
(:mod:`repro.san`) and the GSPN simulator (:mod:`repro.petri.gspn`) do
not use it: each runs one event loop of its own, and SANs also a
vectorized batch engine (:mod:`repro.san.batched`).

The kernel draws no random numbers itself: callers schedule events at
times drawn from the generator they were given, so a run is
deterministic given its seed.  It provides:

* :class:`~repro.sim.engine.SimulationEngine` — the event loop.
* :class:`~repro.sim.events.Event` / :class:`~repro.sim.events.EventQueue` —
  a stable priority queue of timestamped events.
* :class:`~repro.sim.trace.TraceRecorder` — timestamped trace of simulation
  observations for post-hoc indicator computation.
"""

from repro.sim.engine import SimulationEngine, StopCondition
from repro.sim.events import Event, EventQueue
from repro.sim.trace import TraceRecord, TraceRecorder

__all__ = [
    "Event",
    "EventQueue",
    "SimulationEngine",
    "StopCondition",
    "TraceRecord",
    "TraceRecorder",
]
