"""Tests for the simulation engine."""

import ast
from pathlib import Path

import pytest

import repro.sim
from repro.sim.engine import SimulationEngine


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert SimulationEngine().now == 0.0

    def test_events_fire_in_order(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule(2.0, lambda ev: fired.append(2.0))
        engine.schedule(1.0, lambda ev: fired.append(1.0))
        engine.run()
        assert fired == [1.0, 2.0]

    def test_clock_advances_to_event_times(self):
        engine = SimulationEngine()
        seen = []
        engine.schedule(1.5, lambda ev: seen.append(engine.now))
        engine.run()
        assert seen == [1.5]

    def test_schedule_in_past_rejected(self):
        engine = SimulationEngine()
        engine.schedule(1.0, lambda ev: None)
        engine.run()
        with pytest.raises(ValueError):
            engine.schedule(0.5)

    def test_schedule_after_uses_relative_delay(self):
        engine = SimulationEngine()
        times = []

        def chain(ev):
            times.append(engine.now)
            if len(times) < 3:
                engine.schedule_after(1.0, chain)

        engine.schedule(1.0, chain)
        engine.run()
        assert times == [1.0, 2.0, 3.0]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            SimulationEngine().schedule_after(-0.1)

    def test_events_scheduled_during_run_fire(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule(
            1.0,
            lambda ev: engine.schedule(2.0, lambda e2: fired.append("child")),
        )
        engine.run()
        assert fired == ["child"]


class TestStopConditions:
    def test_empty_reason_when_queue_drains(self):
        engine = SimulationEngine()
        engine.schedule(1.0)
        assert engine.run().reason == "empty"

    def test_horizon_stops_before_late_events(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule(5.0, lambda ev: fired.append(5.0))
        stop = engine.run(horizon=2.0)
        assert stop.reason == "horizon"
        assert engine.now == 2.0
        assert fired == []

    def test_horizon_advances_clock_when_queue_empty(self):
        engine = SimulationEngine()
        stop = engine.run(horizon=7.5)
        assert stop.reason == "empty"
        assert engine.now == 7.5

    def test_until_predicate_stops_run(self):
        engine = SimulationEngine()
        count = []
        for t in (1.0, 2.0, 3.0):
            engine.schedule(t, lambda ev: count.append(ev.time))
        stop = engine.run(until=lambda: len(count) >= 2)
        assert stop.reason == "predicate"
        assert count == [1.0, 2.0]

    def test_max_events_caps_run(self):
        engine = SimulationEngine()
        for t in (1.0, 2.0, 3.0):
            engine.schedule(t)
        stop = engine.run(max_events=2)
        assert stop.reason == "max_events"
        assert engine.events_fired == 2

    def test_request_stop_inside_handler(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule(1.0, lambda ev: (fired.append(1), engine.request_stop()))
        engine.schedule(2.0, lambda ev: fired.append(2))
        stop = engine.run()
        assert stop.reason == "predicate"
        assert fired == [1]


class TestEngineState:
    def test_cancel_pending_event(self):
        engine = SimulationEngine()
        fired = []
        ev = engine.schedule(1.0, lambda e: fired.append(1))
        engine.cancel(ev)
        engine.run()
        assert fired == []

    def test_reset_clears_state(self):
        engine = SimulationEngine()
        engine.schedule(1.0)
        engine.run()
        engine.reset()
        assert engine.now == 0.0
        assert engine.events_fired == 0
        assert engine.pending == 0

    def test_listener_sees_every_event(self):
        engine = SimulationEngine()
        seen = []
        engine.add_listener(lambda ev: seen.append(ev.time))
        engine.schedule(1.0)
        engine.schedule(2.0)
        engine.run()
        assert seen == [1.0, 2.0]

    def test_pending_counts_live_events(self):
        engine = SimulationEngine()
        engine.schedule(1.0)
        engine.schedule(2.0)
        assert engine.pending == 2

    def test_resume_after_horizon(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule(5.0, lambda ev: fired.append(5.0))
        engine.run(horizon=2.0)
        engine.run()
        assert fired == [5.0]


class TestRunEdgeCases:
    def test_listener_invoked_for_request_stop_event(self):
        # The event whose handler requests the stop is still a fired
        # event: listeners must observe it before the loop exits.
        engine = SimulationEngine()
        seen = []
        engine.add_listener(lambda ev: seen.append(ev.time))
        engine.schedule(1.0, lambda ev: engine.request_stop())
        engine.schedule(2.0)
        stop = engine.run()
        assert stop.reason == "predicate"
        assert seen == [1.0]

    def test_until_firing_on_last_event_reports_predicate(self):
        # The predicate and queue exhaustion coincide on the final
        # event; the predicate wins (it is checked first).
        engine = SimulationEngine()
        fired = []
        engine.schedule(1.0, lambda ev: fired.append(ev.time))
        engine.schedule(2.0, lambda ev: fired.append(ev.time))
        stop = engine.run(until=lambda: len(fired) == 2)
        assert stop.reason == "predicate"
        assert stop.time == 2.0
        assert engine.pending == 0

    def test_max_events_wins_when_hit_before_horizon(self):
        engine = SimulationEngine()
        for t in (1.0, 2.0, 3.0, 4.0):
            engine.schedule(t)
        stop = engine.run(horizon=10.0, max_events=2)
        assert stop.reason == "max_events"
        assert engine.now == 2.0
        assert engine.pending == 2

    def test_horizon_wins_when_hit_before_max_events(self):
        engine = SimulationEngine()
        for t in (1.0, 2.0, 30.0):
            engine.schedule(t)
        stop = engine.run(horizon=10.0, max_events=100)
        assert stop.reason == "horizon"
        assert engine.now == 10.0
        assert engine.pending == 1  # the post-horizon event survives

    def test_max_events_is_per_run_not_cumulative(self):
        engine = SimulationEngine()
        for t in (1.0, 2.0, 3.0, 4.0):
            engine.schedule(t)
        assert engine.run(max_events=2).reason == "max_events"
        # A fresh run gets a fresh per-run budget of 2.
        stop = engine.run(max_events=2)
        assert stop.reason == "max_events"
        assert engine.events_fired == 4
        assert engine.run().reason == "empty"

    def test_request_stop_cleared_between_runs(self):
        engine = SimulationEngine()
        engine.schedule(1.0, lambda ev: engine.request_stop())
        engine.schedule(2.0)
        assert engine.run().reason == "predicate"
        # The stale stop request must not abort the next run.
        assert engine.run().reason == "empty"
        assert engine.events_fired == 2


def test_kernel_imports_no_random_source():
    """The kernel draws no random numbers: callers schedule events at
    times drawn from their own generator."""
    for path in Path(repro.sim.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            for module in modules:
                assert module.split(".")[0] not in ("random", "numpy"), (
                    f"{path.name} imports {module}"
                )
