"""Unit tests for the event primitives."""

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator
from repro.sim.events import AllOf, AnyOf, Event, Timeout


@pytest.fixture
def sim():
    return Simulator()


class TestEvent:
    def test_starts_pending(self, sim):
        event = Event(sim)
        assert not event.triggered
        assert event.ok is None
        assert event.value is None

    def test_succeed_sets_value(self, sim):
        event = Event(sim).succeed(42)
        assert event.triggered
        assert event.ok is True
        assert event.value == 42

    def test_fail_requires_exception(self, sim):
        with pytest.raises(SimulationError):
            Event(sim).fail("not an exception")

    def test_fail_sets_state(self, sim):
        exc = ValueError("boom")
        event = Event(sim).fail(exc)
        assert event.triggered
        assert event.ok is False
        assert event.value is exc

    def test_double_trigger_rejected(self, sim):
        event = Event(sim).succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_callback_runs_via_event_queue(self, sim):
        event = Event(sim)
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        event.succeed("x")
        assert seen == []  # not synchronous
        sim.run()
        assert seen == ["x"]

    def test_callback_after_processed_still_fires(self, sim):
        event = Event(sim).succeed(7)
        sim.run()
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        sim.run()
        assert seen == [7]

    def test_multiple_callbacks_in_order(self, sim):
        event = Event(sim)
        seen = []
        event.add_callback(lambda e: seen.append("a"))
        event.add_callback(lambda e: seen.append("b"))
        event.succeed()
        sim.run()
        assert seen == ["a", "b"]


class TestTimeout:
    def test_fires_at_deadline(self, sim):
        timeout = Timeout(sim, 1.5, value="done")
        sim.run()
        assert timeout.triggered
        assert timeout.value == "done"
        assert sim.now == pytest.approx(1.5)

    def test_zero_delay(self, sim):
        timeout = Timeout(sim, 0.0)
        sim.run()
        assert timeout.triggered
        assert sim.now == 0.0

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            Timeout(sim, -0.1)


class TestAllOf:
    def test_waits_for_all(self, sim):
        a, b = Timeout(sim, 1.0, "a"), Timeout(sim, 2.0, "b")
        combined = AllOf(sim, [a, b])
        sim.run(until=1.5)
        assert not combined.triggered
        sim.run()
        assert combined.triggered
        assert combined.value == ["a", "b"]

    def test_values_in_declaration_order(self, sim):
        slow, fast = Timeout(sim, 2.0, "slow"), Timeout(sim, 1.0, "fast")
        combined = AllOf(sim, [slow, fast])
        sim.run()
        assert combined.value == ["slow", "fast"]

    def test_empty_succeeds_immediately(self, sim):
        combined = AllOf(sim, [])
        assert combined.triggered
        assert combined.value == []

    def test_child_failure_propagates(self, sim):
        good = Timeout(sim, 1.0)
        bad = Event(sim)
        combined = AllOf(sim, [good, bad])
        bad.fail(RuntimeError("child died"))
        with pytest.raises(RuntimeError, match="child died"):
            sim.run()  # nobody waits on the combined event
        assert combined.ok is False
        assert isinstance(combined.value, RuntimeError)


class TestAnyOf:
    def test_first_wins(self, sim):
        slow, fast = Timeout(sim, 2.0, "slow"), Timeout(sim, 1.0, "fast")
        any_event = AnyOf(sim, [slow, fast])
        sim.run()
        assert any_event.value == (1, "fast")

    def test_requires_children(self, sim):
        with pytest.raises(SimulationError):
            AnyOf(sim, [])

    def test_later_triggers_ignored(self, sim):
        a, b = Timeout(sim, 1.0, "a"), Timeout(sim, 1.0, "b")
        any_event = AnyOf(sim, [a, b])
        sim.run()
        assert any_event.value == (0, "a")  # FIFO at equal time
