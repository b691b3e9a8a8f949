"""Unit tests for the simulation engine."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.simcore.engine import Simulator
from repro.simcore.events import EventKind


class TestScheduling:
    def test_callbacks_fire_in_time_order(self, sim: Simulator):
        order = []
        sim.schedule(2.0, lambda e: order.append("b"))
        sim.schedule(1.0, lambda e: order.append("a"))
        sim.schedule(3.0, lambda e: order.append("c"))
        sim.run_until_empty()
        assert order == ["a", "b", "c"]

    def test_clock_follows_events(self, sim: Simulator):
        times = []
        sim.schedule(1.5, lambda e: times.append(sim.now))
        sim.schedule(4.0, lambda e: times.append(sim.now))
        sim.run_until_empty()
        assert times == [1.5, 4.0]

    def test_schedule_in_past_raises(self, sim: Simulator):
        sim.schedule(5.0, lambda e: None)
        sim.run_until_empty()
        with pytest.raises(SimulationError):
            sim.schedule(1.0, lambda e: None)

    def test_schedule_in_relative(self, sim: Simulator):
        seen = []
        sim.schedule(2.0, lambda e: sim.schedule_in(3.0, lambda e2: seen.append(sim.now)))
        sim.run_until_empty()
        assert seen == [5.0]

    @pytest.mark.parametrize("method, value", [
        ("schedule_in", -1.0),
        ("schedule_in", float("nan")),
        ("schedule_in", float("inf")),
        ("schedule", float("nan")),
        ("schedule", float("inf")),
    ])
    def test_negative_delay_raises(self, sim: Simulator, method, value):
        # NaN used to fire silently at now: every comparison with it is
        # false, so the past-time guard let it through.
        with pytest.raises(SimulationError):
            getattr(sim, method)(value, lambda e: None)
        assert len(sim.queue) == 0

    def test_cancel_prevents_firing(self, sim: Simulator):
        fired = []
        handle = sim.schedule(1.0, lambda e: fired.append(1))
        sim.cancel(handle)
        sim.run_until_empty()
        assert fired == []


class TestRun:
    def test_run_until_horizon_leaves_future_events(self, sim: Simulator):
        fired = []
        sim.schedule(1.0, lambda e: fired.append(1))
        sim.schedule(10.0, lambda e: fired.append(10))
        end = sim.run(until=5.0)
        assert fired == [1]
        assert end == 5.0
        assert len(sim.queue) == 1

    def test_event_exactly_at_horizon_fires(self, sim: Simulator):
        fired = []
        sim.schedule(5.0, lambda e: fired.append(5))
        sim.run(until=5.0)
        assert fired == [5]

    def test_horizon_advances_clock_even_without_events(self, sim: Simulator):
        sim.run(until=7.0)
        assert sim.now == 7.0

    def test_events_scheduled_during_run_fire(self, sim: Simulator):
        seen = []

        def chain(e):
            seen.append(sim.now)
            if sim.now < 3:
                sim.schedule_in(1.0, chain)

        sim.schedule(1.0, chain)
        sim.run_until_empty()
        assert seen == [1.0, 2.0, 3.0]

    def test_step_returns_none_when_empty(self, sim: Simulator):
        assert sim.step() is None

    def test_max_events_guard(self):
        sim = Simulator(max_events=10)

        def forever(e):
            sim.schedule_in(1.0, forever)

        sim.schedule(0.0, forever)
        with pytest.raises(SimulationError):
            sim.run_until_empty()

    def test_run_not_reentrant(self, sim: Simulator):
        def reenter(e):
            sim.run()

        sim.schedule(1.0, reenter)
        with pytest.raises(SimulationError):
            sim.run_until_empty()


class TestDeterminism:
    def test_same_seed_same_random_streams(self):
        a = Simulator(seed=123).rngs.stream("x").random(5)
        b = Simulator(seed=123).rngs.stream("x").random(5)
        assert (a == b).all()

    def test_trace_keyword_is_gone(self):
        with pytest.raises(TypeError):
            Simulator(seed=0, trace=False)

    def test_kind_and_priority_passthrough(self, sim: Simulator):
        order = []
        sim.schedule(1.0, lambda e: order.append("tick"),
                     kind=EventKind.SCHEDULER_TICK, priority=10)
        sim.schedule(1.0, lambda e: order.append("exit"),
                     kind=EventKind.CONTAINER_EXIT, priority=-20)
        sim.run_until_empty()
        assert order == ["exit", "tick"]
