"""The discrete-event simulation engine.

:class:`SimulationEngine` advances a simulation clock by firing events in
``(time, priority, insertion)`` order.  The attack-campaign simulator
(:mod:`repro.attacks.campaign`) schedules events against the engine and
inspects the clock through :attr:`SimulationEngine.now`; the SAN and
GSPN simulators run event loops of their own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional

from repro.sim.events import Event, EventQueue


@dataclass
class StopCondition:
    """Why a simulation run ended.

    Attributes:
        reason: One of ``"horizon"``, ``"empty"``, ``"predicate"``,
            ``"max_events"``.
        time: Clock value when the run stopped.
        events_fired: Number of events executed.
    """

    reason: str
    time: float
    events_fired: int


class SimulationEngine:
    """A minimal, deterministic discrete-event simulation loop.

    Example:
        >>> engine = SimulationEngine()
        >>> hits = []
        >>> engine.schedule(1.5, lambda ev: hits.append(ev.time))
        <...>
        >>> engine.run(horizon=10.0).reason
        'empty'
        >>> hits
        [1.5]
    """

    def __init__(self) -> None:
        self._queue = EventQueue()
        self._now = 0.0
        self._events_fired = 0
        self._stop_requested = False
        self._listeners: List[Callable[[Event], None]] = []

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Total events executed since construction or :meth:`reset`."""
        return self._events_fired

    @property
    def pending(self) -> int:
        """Number of live events in the queue."""
        return len(self._queue)

    def reset(self) -> None:
        """Clear the clock and drop all pending events.

        Dropping the events also drops their actions, so a caller whose
        actions close over the engine can call this to break that
        reference cycle once the run is over.
        """
        self._queue.clear()
        self._now = 0.0
        self._events_fired = 0
        self._stop_requested = False

    def schedule(
        self,
        time: float,
        action: Optional[Callable[[Event], None]] = None,
        priority: int = 0,
        payload: Any = None,
    ) -> Event:
        """Schedule an event at absolute time ``time``.

        Raises:
            ValueError: If ``time`` is in the past.
        """
        if time < self._now:
            raise ValueError(
                f"cannot schedule at {time}; clock already at {self._now}"
            )
        return self._queue.schedule(time, action, priority=priority, payload=payload)

    def schedule_after(
        self,
        delay: float,
        action: Optional[Callable[[Event], None]] = None,
        priority: int = 0,
        payload: Any = None,
    ) -> Event:
        """Schedule an event ``delay`` time units from now."""
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        return self.schedule(self._now + delay, action, priority, payload)

    def cancel(self, event: Event) -> None:
        """Cancel a pending event."""
        self._queue.cancel(event)

    def request_stop(self) -> None:
        """Ask the engine to stop before firing the next event."""
        self._stop_requested = True

    def add_listener(self, listener: Callable[[Event], None]) -> None:
        """Register a callback invoked after every fired event."""
        self._listeners.append(listener)

    def run(
        self,
        horizon: Optional[float] = None,
        until: Optional[Callable[[], bool]] = None,
        max_events: Optional[int] = None,
    ) -> StopCondition:
        """Run the event loop.

        Args:
            horizon: Stop once the next event would fire after this time;
                the clock is advanced to the horizon.
            until: Predicate checked after each event; loop stops when true.
            max_events: Safety cap on the number of events to fire.

        Returns:
            A :class:`StopCondition` describing why the loop ended.
        """
        fired_this_run = 0
        self._stop_requested = False
        queue = self._queue
        listeners = self._listeners
        while True:
            if self._stop_requested:
                return StopCondition("predicate", self._now, self._events_fired)
            if max_events is not None and fired_this_run >= max_events:
                return StopCondition("max_events", self._now, self._events_fired)
            event = queue.peek()
            if event is None:
                if horizon is not None and horizon > self._now:
                    self._now = horizon
                return StopCondition("empty", self._now, self._events_fired)
            if horizon is not None and event.time > horizon:
                # The event stays queued for a later run() call.
                self._now = horizon
                return StopCondition("horizon", self._now, self._events_fired)
            queue.pop_peeked()
            self._now = event.time
            action = event.action
            if action is not None:
                action(event)
            self._events_fired += 1
            fired_this_run += 1
            if listeners:  # fast path: no listener dispatch when unused
                for listener in listeners:
                    listener(event)
            if until is not None and until():
                return StopCondition("predicate", self._now, self._events_fired)
