"""Unit tests for the discrete-event clock."""

import pytest

from repro.net.clock import EventClock, SimulationError


class TestScheduling:
    def test_starts_at_zero(self):
        assert EventClock().now == 0.0

    def test_custom_start(self):
        assert EventClock(start=5.0).now == 5.0

    def test_call_at_runs_at_time(self):
        clock = EventClock()
        seen = []
        clock.call_at(3.0, lambda: seen.append(clock.now))
        clock.run()
        assert seen == [3.0]

    def test_call_after_is_relative(self):
        clock = EventClock(start=10.0)
        seen = []
        clock.call_after(2.5, lambda: seen.append(clock.now))
        clock.run()
        assert seen == [12.5]

    def test_events_run_in_time_order(self):
        clock = EventClock()
        seen = []
        clock.call_at(5.0, lambda: seen.append("b"))
        clock.call_at(1.0, lambda: seen.append("a"))
        clock.call_at(9.0, lambda: seen.append("c"))
        clock.run()
        assert seen == ["a", "b", "c"]

    def test_same_time_events_run_in_schedule_order(self):
        clock = EventClock()
        seen = []
        for label in "abcd":
            clock.call_at(1.0, lambda l=label: seen.append(l))
        clock.run()
        assert seen == ["a", "b", "c", "d"]

    def test_scheduling_in_the_past_rejected(self):
        clock = EventClock(start=10.0)
        with pytest.raises(SimulationError):
            clock.call_at(5.0, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            EventClock().call_after(-1.0, lambda: None)

    def test_events_can_schedule_events(self):
        clock = EventClock()
        seen = []

        def first():
            clock.call_after(1.0, lambda: seen.append(clock.now))

        clock.call_at(1.0, first)
        clock.run()
        assert seen == [2.0]


class TestRunControl:
    def test_run_returns_event_count(self):
        clock = EventClock()
        for i in range(5):
            clock.call_at(float(i), lambda: None)
        assert clock.run() == 5

    def test_run_until_stops_before_later_events(self):
        clock = EventClock()
        seen = []
        clock.call_at(1.0, lambda: seen.append(1))
        clock.call_at(10.0, lambda: seen.append(10))
        clock.run(until=5.0)
        assert seen == [1]
        assert clock.now == 5.0

    def test_run_until_then_resume(self):
        clock = EventClock()
        seen = []
        clock.call_at(10.0, lambda: seen.append(10))
        clock.run(until=5.0)
        clock.run()
        assert seen == [10]

    def test_advance_moves_time_even_without_events(self):
        clock = EventClock()
        clock.advance(7.0)
        assert clock.now == 7.0

    def test_max_events_limit(self):
        clock = EventClock()
        seen = []
        for i in range(10):
            clock.call_at(float(i), lambda i=i: seen.append(i))
        clock.run(max_events=3)
        assert seen == [0, 1, 2]

    def test_step_returns_false_when_empty(self):
        assert EventClock().step() is False

    def test_pending_counts_live_events(self):
        clock = EventClock()
        clock.call_at(1.0, lambda: None)
        clock.call_at(2.0, lambda: None)
        assert clock.pending() == 2
        clock.step()
        assert clock.pending() == 1
