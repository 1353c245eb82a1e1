"""Unit tests for the simulator event loop."""

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


ENTRY_POINTS = {
    "run": lambda sim: sim.run(),
    "run_until_triggered": lambda sim: sim.run_until_triggered(sim.timeout(1.0)),
}


class TestScheduling:
    def test_time_advances_to_scheduled(self, sim):
        fired = []
        sim.schedule(2.5, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [2.5]
        assert sim.now == 2.5

    def test_fifo_at_equal_time(self, sim):
        order = []
        for label in "abc":
            sim.schedule(1.0, order.append, label)
        sim.run()
        assert order == ["a", "b", "c"]

    def test_time_ordering(self, sim):
        order = []
        sim.schedule(3.0, order.append, "late")
        sim.schedule(1.0, order.append, "early")
        sim.schedule(2.0, order.append, "mid")
        sim.run()
        assert order == ["early", "mid", "late"]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_at_absolute(self, sim):
        fired = []
        sim.schedule(1.0, lambda: sim.schedule_at(5.0, lambda: fired.append(sim.now)))
        sim.run()
        assert fired == [5.0]

    def test_schedule_at_past_runs_now(self, sim):
        fired = []
        sim.schedule(2.0, lambda: sim.schedule_at(1.0, lambda: fired.append(sim.now)))
        sim.run()
        assert fired == [2.0]

    def test_nested_scheduling(self, sim):
        order = []

        def outer():
            order.append("outer")
            for index in range(100):
                sim.schedule(0.001 * index, order.append, index)

        sim.schedule(1.0, outer)
        sim.run()
        assert order == ["outer", *range(100)]
        assert sim.now == 1.0 + 0.001 * 99
        assert sim.events_executed == 101


NAN = float("nan")
NAN_ENTRIES = {
    "schedule": lambda sim: sim.schedule(NAN, len, ()),
    "schedule_owned": lambda sim: sim.schedule_owned("node", NAN, len, ()),
    "schedule_many": lambda sim: sim.schedule_many(None, NAN, [(len, ((),))]),
    "schedule_at": lambda sim: sim.schedule_at(NAN, len, ()),
    "timeout": lambda sim: sim.timeout(NAN),
}


class TestNaNTime:
    """A NaN time compares false with every heap entry: pushed, it would
    dispatch ahead of earlier-due events and leave the clock at NaN."""

    @pytest.mark.parametrize("entry", sorted(NAN_ENTRIES))
    def test_nan_rejected(self, sim, entry):
        fired = []
        sim.schedule(0.1, fired.append, "due")
        with pytest.raises(SimulationError):
            NAN_ENTRIES[entry](sim)
        assert sim.run(until=1.0) == 1.0
        assert fired == ["due"]


class TestRun:
    def test_run_until_stops_time(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(5.0, fired.append, "b")
        sim.run(until=2.0)
        assert fired == ["a"]
        assert sim.now == 2.0
        # A horizon that outlives the last event is still where the clock ends.
        assert sim.run(until=8.0) == 8.0
        assert fired == ["a", "b"]
        assert sim.now == 8.0

    def test_run_empty_with_until_advances_clock(self, sim):
        sim.run(until=10.0)
        assert sim.now == 10.0

    @pytest.mark.parametrize("queued", [False, True], ids=["empty-heap", "queued-entry"])
    def test_clock_never_runs_backwards(self, sim, queued):
        if queued:
            sim.schedule(9.0, lambda: None)
        sim.run(until=5.0)
        assert sim.run(until=2.0) == 5.0
        assert sim.now == 5.0
        fired = []
        sim.schedule(0.0, lambda: fired.append(sim.now))
        sim.run(until=5.0)
        assert fired == [5.0]

    def test_max_events_guard(self, sim):
        def loop():
            sim.schedule(0.001, loop)

        sim.schedule(0.0, loop)
        with pytest.raises(SimulationError, match="max_events=50"):
            sim.run(max_events=50)
        assert sim.events_executed == 50

    def test_not_reentrant(self, sim):
        def recurse():
            sim.run()

        sim.schedule(0.0, recurse)
        with pytest.raises(SimulationError):
            sim.run()

    @pytest.mark.parametrize("inner", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("outer", sorted(ENTRY_POINTS))
    def test_neither_entry_point_nests(self, sim, outer, inner):
        # One heap, one loop: a nested loop would run the bystander from
        # inside the t=0 handler.
        bystander = []
        sim.schedule(0.0, ENTRY_POINTS[inner], sim)
        sim.schedule(0.5, bystander.append, "ran")
        with pytest.raises(SimulationError, match="not reentrant"):
            ENTRY_POINTS[outer](sim)
        assert bystander == []
        assert sim._running is False
        sim.run()
        assert bystander == ["ran"]

    def test_events_executed_counter(self, sim):
        for _ in range(5):
            sim.schedule(0.1, lambda: None)
        sim.run()
        assert sim.events_executed == 5


class TestRunUntilTriggered:
    def test_returns_value(self, sim):
        later = []
        sim.schedule(1.0, lambda: None)
        event = sim.timeout(3.0, "payload")
        sim.schedule(5.0, later.append, "after the trigger")
        assert sim.run_until_triggered(event) == "payload"
        # Returns at the trigger: the clock stops there and what is
        # scheduled later stays queued. Three dispatches: the no-op, the
        # timeout, and the event's callback round.
        assert sim.now == pytest.approx(3.0)
        assert later == []
        assert sim.events_executed == 3
        assert sim.pending_events == 1

    def test_raises_on_failure(self, sim):
        event = sim.event()
        sim.schedule(1.0, lambda: event.fail(ValueError("bad")))
        with pytest.raises(ValueError):
            sim.run_until_triggered(event)

    def test_drained_queue_is_error(self, sim):
        event = sim.event()  # never triggered
        with pytest.raises(SimulationError):
            sim.run_until_triggered(event)

    def test_limit_enforced(self, sim):
        event = sim.timeout(10.0)
        sim.timeout(20.0)
        with pytest.raises(SimulationError):
            sim.run_until_triggered(event, limit=5.0)

    def test_max_events_guard(self, sim):
        event = sim.event()  # never triggered

        def loop():
            sim.schedule(0.001, loop)

        sim.schedule(0.0, loop)
        with pytest.raises(SimulationError, match="max_events=50"):
            sim.run_until_triggered(event, max_events=50)
        assert sim.events_executed == 50


class TestBulkScheduling:
    def test_schedule_many_preserves_fifo(self, sim):
        order = []
        sim.schedule(1.0, order.append, "before")
        sim.schedule_many(
            None, 1.0, [(order.append, ("x",)), (order.append, ("y",))]
        )
        sim.schedule(1.0, order.append, "after")
        sim.run()
        assert order == ["before", "x", "y", "after"]

    def test_schedule_many_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule_many(None, -0.5, [(lambda: None, ())])


class TestClampCounter:
    def test_schedule_at_past_is_counted(self, sim):
        fired = []
        sim.schedule(2.0, lambda: sim.schedule_at(1.0, fired.append, "late"))
        sim.run()
        assert fired == ["late"]
        assert sim.schedule_at_clamped == 1

    def test_schedule_at_future_is_not_counted(self, sim):
        sim.schedule_at(1.0, lambda: None)
        sim.run()
        assert sim.schedule_at_clamped == 0
