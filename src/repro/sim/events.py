"""Timestamped events and the pending-event queue.

Events are ordered by ``(time, priority, sequence)``.  ``priority`` breaks
ties between events scheduled at the same instant (lower value fires first);
``sequence`` is a monotonically increasing counter that guarantees FIFO
ordering among events with equal time and priority, which keeps simulations
reproducible regardless of heap internals.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, Optional


@dataclass(order=True, slots=True)
class Event:
    """A scheduled occurrence in simulated time.

    ``slots=True`` keeps the heap's working set compact and speeds up
    the attribute reads the event loop does per fired event.

    Attributes:
        time: Simulation time at which the event fires.
        priority: Tie-breaker for simultaneous events; lower fires first.
        sequence: Insertion counter; preserves FIFO order for full ties.
        action: Callable invoked when the event fires.  It receives the
            event itself so handlers can inspect ``time`` and ``payload``.
        payload: Arbitrary data attached to the event.
        cancelled: Lazily-cancelled events are skipped by the queue.
    """

    time: float
    priority: int = 0
    sequence: int = field(default=0, compare=True)
    action: Optional[Callable[["Event"], None]] = field(default=None, compare=False)
    payload: Any = field(default=None, compare=False)
    cancelled: bool = field(default=False, compare=False)

    def cancel(self) -> None:
        """Mark the event so the queue discards it instead of firing it."""
        self.cancelled = True

    def fire(self) -> None:
        """Invoke the event action, if any."""
        if self.action is not None:
            self.action(self)


class EventQueue:
    """A stable min-heap of :class:`Event` objects.

    Heap entries are ``(time, priority, sequence, event)`` tuples.
    ``sequence`` is unique per queue, so the built-in tuple comparison
    orders entries exactly as :class:`Event` ordering would and never
    reaches the event itself: no ``Event.__lt__`` call on the hot path,
    and full ``(time, priority)`` ties whose actions or payloads cannot
    be compared are still ordered FIFO.

    The queue supports lazy cancellation: cancelled events stay in the heap
    but are transparently skipped by :meth:`pop` and :meth:`peek`.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Event]] = []
        # Plain integer tie-break counter (cheaper than an
        # itertools.count round-trip on the scheduling hot path).
        self._next_sequence = 0
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def schedule(
        self,
        time: float,
        action: Optional[Callable[[Event], None]] = None,
        priority: int = 0,
        payload: Any = None,
    ) -> Event:
        """Create an event and push it onto the queue.

        Args:
            time: Absolute simulation time of the event.
            action: Callback invoked when the event fires.
            priority: Tie-breaker among simultaneous events (lower first).
            payload: Arbitrary data carried by the event.

        Returns:
            The scheduled :class:`Event`, which the caller may later cancel.

        Raises:
            ValueError: If ``time`` is negative or not finite.
        """
        if not (time >= 0.0) or time == float("inf"):
            raise ValueError(f"event time must be finite and >= 0, got {time!r}")
        sequence = self._next_sequence
        self._next_sequence = sequence + 1
        event = Event(time, priority, sequence, action, payload)
        heapq.heappush(self._heap, (time, priority, sequence, event))
        self._live += 1
        return event

    def push(self, event: Event) -> Event:
        """Push an externally-constructed event, assigning its sequence."""
        sequence = self._next_sequence
        self._next_sequence = sequence + 1
        event.sequence = sequence
        entry = (event.time, event.priority, sequence, event)
        heapq.heappush(self._heap, entry)
        self._live += 1
        return event

    def peek(self) -> Optional[Event]:
        """Return the next live event without removing it, or ``None``."""
        heap = self._heap
        while heap:
            event = heap[0][3]
            if not event.cancelled:
                return event
            heapq.heappop(heap)
        return None

    def pop_peeked(self) -> None:
        """Remove the live head that :meth:`peek` has just returned.

        Saves the event loop a second scan for cancelled entries; only
        valid directly after a :meth:`peek` that returned an event.
        """
        heapq.heappop(self._heap)
        self._live -= 1

    def pop(self) -> Optional[Event]:
        """Remove and return the next live event, or ``None`` if empty."""
        event = self.peek()
        if event is not None:
            self.pop_peeked()
        return event

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event (lazy removal)."""
        if not event.cancelled:
            event.cancel()
            self._live -= 1

    def clear(self) -> None:
        """Discard every pending event."""
        self._heap.clear()
        self._live = 0
