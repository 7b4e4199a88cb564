"""Tests for the event queue."""

import pytest

from repro.sim.events import Event, EventQueue


class TestEventOrdering:
    def test_events_pop_in_time_order(self):
        q = EventQueue()
        q.schedule(3.0)
        q.schedule(1.0)
        q.schedule(2.0)
        times = [q.pop().time for _ in range(3)]
        assert times == [1.0, 2.0, 3.0]

    def test_priority_breaks_time_ties(self):
        q = EventQueue()
        q.schedule(1.0, priority=5, payload="late")
        q.schedule(1.0, priority=1, payload="early")
        assert q.pop().payload == "early"
        assert q.pop().payload == "late"

    def test_fifo_among_full_ties(self):
        q = EventQueue()
        for i in range(5):
            q.schedule(1.0, payload=i)
        order = [q.pop().payload for _ in range(5)]
        assert order == [0, 1, 2, 3, 4]

    def test_peek_does_not_remove(self):
        q = EventQueue()
        q.schedule(1.0)
        assert q.peek() is q.peek()
        assert len(q) == 1


class TestCancellation:
    def test_cancelled_event_is_skipped(self):
        q = EventQueue()
        keep = q.schedule(1.0, payload="keep")
        drop = q.schedule(0.5, payload="drop")
        q.cancel(drop)
        assert q.pop() is keep

    def test_cancel_updates_length(self):
        q = EventQueue()
        ev = q.schedule(1.0)
        q.schedule(2.0)
        q.cancel(ev)
        assert len(q) == 1

    def test_double_cancel_is_idempotent(self):
        q = EventQueue()
        ev = q.schedule(1.0)
        q.cancel(ev)
        q.cancel(ev)
        assert len(q) == 0

    def test_peek_skips_cancelled_head(self):
        q = EventQueue()
        head = q.schedule(0.5)
        tail = q.schedule(1.0)
        q.cancel(head)
        assert q.peek() is tail


class TestValidation:
    def test_negative_time_rejected(self):
        q = EventQueue()
        with pytest.raises(ValueError):
            q.schedule(-1.0)

    def test_nan_time_rejected(self):
        q = EventQueue()
        with pytest.raises(ValueError):
            q.schedule(float("nan"))

    def test_infinite_time_rejected(self):
        q = EventQueue()
        with pytest.raises(ValueError):
            q.schedule(float("inf"))


class TestQueueBasics:
    def test_empty_queue_pops_none(self):
        assert EventQueue().pop() is None

    def test_empty_queue_peeks_none(self):
        assert EventQueue().peek() is None

    def test_bool_reflects_liveness(self):
        q = EventQueue()
        assert not q
        q.schedule(1.0)
        assert q

    def test_clear_discards_everything(self):
        q = EventQueue()
        q.schedule(1.0)
        q.schedule(2.0)
        q.clear()
        assert len(q) == 0
        assert q.pop() is None

    def test_event_fire_invokes_action(self):
        hits = []
        ev = Event(time=1.0, action=lambda e: hits.append(e.time))
        ev.fire()
        assert hits == [1.0]

    def test_event_fire_without_action_is_noop(self):
        Event(time=1.0).fire()  # must not raise


class _Incomparable(Event):
    """An event whose comparisons fail: the queue must never call them."""

    def __lt__(self, other):
        raise AssertionError("EventQueue compared two events")

    __le__ = __gt__ = __ge__ = __eq__ = __lt__


class TestTupleKeyedHeap:
    def test_push_interleaves_with_schedule(self):
        q = EventQueue()
        q.schedule(2.0, payload="scheduled@2")
        pushed_early = q.push(Event(time=1.0, payload="pushed@1"))
        q.schedule(1.0, payload="scheduled@1")
        q.push(Event(time=1.0, priority=-1, payload="pushed@1,urgent"))
        q.push(Event(time=2.0, payload="pushed@2"))
        assert pushed_early.sequence == 1
        assert len(q) == 5
        assert [q.pop().payload for _ in range(5)] == [
            "pushed@1,urgent",
            "pushed@1",
            "scheduled@1",
            "scheduled@2",
            "pushed@2",
        ]

    def test_push_reassigns_sequence(self):
        q = EventQueue()
        q.schedule(1.0)
        event = Event(time=1.0, sequence=-5)
        assert q.push(event) is event
        assert event.sequence == 1

    def test_cancelled_pushed_event_is_skipped(self):
        q = EventQueue()
        pushed = q.push(Event(time=0.5))
        kept = q.schedule(1.0)
        q.cancel(pushed)
        assert len(q) == 1
        assert q.pop() is kept
        assert q.pop() is None

    def test_full_ties_with_incomparable_actions_and_payloads(self):
        q = EventQueue()
        payloads = [{"i": i} for i in range(6)]  # dicts do not order
        for i, payload in enumerate(payloads):
            q.schedule(
                3.0, action=lambda ev, i=i: None, priority=1, payload=payload
            )
        assert [q.pop().payload for _ in range(6)] == payloads

    def test_never_compares_events(self):
        q = EventQueue()
        events = [_Incomparable(time=1.0, priority=0) for _ in range(8)]
        for index, event in enumerate(events):
            q.push(event)
            q.schedule(1.0, payload=index)
        popped = [q.pop() for _ in range(16)]
        assert all(got is want for got, want in zip(popped[0::2], events))
        assert [event.payload for event in popped[1::2]] == list(range(8))

    def test_events_stay_orderable(self):
        early = Event(time=1.0, priority=0, sequence=5)
        late = Event(time=1.0, priority=0, sequence=6)
        assert early < late
        assert sorted([late, early]) == [early, late]
