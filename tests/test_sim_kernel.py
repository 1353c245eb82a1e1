"""Unit tests for the simulator event loop."""

import heapq
from collections import deque
from math import inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import Resource, Simulator
from repro.sim.events import Event


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
    "run-until": lambda sim: sim.run(until=NAN),
    "run_until_triggered-limit": lambda sim: sim.run_until_triggered(
        sim.timeout(1.0), limit=NAN
    ),
    "bare-delay": lambda sim: sim.run_until_triggered(sim.process(_waits(NAN))),
}


def _waits(delay):
    yield delay


class TestNaNTime:
    """A NaN time compares false with every heap entry: pushed, it would
    dispatch ahead of earlier-due events and leave the clock at NaN; as a
    horizon it would bound nothing. Every row raises before dispatching
    anything but what it started itself."""

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


class TestSameInstantLane:
    def test_heap_entries_due_now_precede_work_pushed_at_now(self, sim):
        # "b" was pushed while t=1 lay ahead, so it runs before the
        # zero-delay work "a" schedules at t=1.
        order = []
        sim.schedule(1.0, lambda: (order.append("a"), sim.schedule(0.0, order.append, "c")))
        sim.schedule(1.0, order.append, "b")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_sub_ulp_delay_is_due_now(self, sim):
        order = []

        def at_one():
            sim.schedule(1e-17, order.append, "sub-ulp")
            sim.schedule(0.0, order.append, "zero")

        sim.schedule(1.0, at_one)
        sim.run()
        assert order == ["sub-ulp", "zero"]
        assert sim.now == 1.0

    def test_outside_push_after_a_mid_instant_stop_queues_last(self, sim):
        order = []
        event = sim.event()

        def at_one():
            order.append("trigger")
            event.succeed()
            sim.schedule(0.0, order.append, "queued")

        sim.schedule(1.0, at_one)
        sim.schedule(1.0, order.append, "sibling")
        sim.run_until_triggered(event)
        assert sim.pending_events == 1
        sim.schedule(0.0, order.append, "outside")
        assert sim.pending_events == 2
        sim.run()
        assert order == ["trigger", "sibling", "queued", "outside"]

    def test_run_behind_the_clock_dispatches_nothing_due_now(self, sim):
        event = sim.event()
        sim.schedule(1.0, lambda: (event.succeed(), sim.schedule(0.0, lambda: None)))
        sim.run_until_triggered(event)
        before = sim.events_executed
        assert sim.run(until=0.5) == 1.0
        assert sim.events_executed == before
        assert sim.pending_events == 1

    def test_parked_lane_entries_replay_in_order(self, sim):
        order = []
        sim.suspend_owner("n")
        sim.schedule_owned("n", 0.0, order.append, "x")
        sim.schedule_owned("n", 0.0, order.append, "y")
        sim.run()
        assert order == []
        sim.resume_owner("n")
        sim.run()
        assert order == ["x", "y"]


# -- order equivalence with a one-heap reference ----------------------------


class _RefEvent:
    def __init__(self):
        self.triggered = False
        self.done = False


class _RefKernel:
    """The dispatch contract in one heap: every entry ordered by
    ``(time, seq)``, equal times in push order."""

    def __init__(self):
        self.now = 0.0
        self.heap = []
        self.seq = 0
        self.events_executed = 0
        self.suspended = set()
        self.parked = {}

    def push(self, delay, fn, args, owner):
        self.seq += 1
        heapq.heappush(self.heap, (self.now + delay, self.seq, fn, args, owner))

    def schedule(self, delay, fn, *args):
        self.push(delay, fn, args, None)

    def schedule_owned(self, owner, delay, fn, *args):
        self.push(delay, fn, args, owner)

    def schedule_many(self, owner, delay, calls):
        for fn, args in calls:
            self.push(delay, fn, args, owner)

    def schedule_at(self, when, fn, *args):
        self.push(max(when - self.now, 0.0), fn, args, None)

    def suspend_owner(self, owner):
        self.suspended.add(owner)

    def resume_owner(self, owner):
        self.suspended.discard(owner)
        self.schedule_many(owner, 0.0, self.parked.pop(owner, []))

    def discard_parked(self, owner):
        return len(self.parked.pop(owner, []))

    @property
    def pending_events(self):
        return len(self.heap)

    def event(self):
        return _RefEvent()

    def succeed(self, event):
        event.triggered = True
        self.push(0.0, setattr, (event, "done", True), None)

    def _dispatch(self, horizon, done):
        while not done():
            if not self.heap:
                raise SimulationError("event queue drained before event triggered")
            if self.heap[0][0] > horizon:
                return
            when, _, fn, args, owner = heapq.heappop(self.heap)
            self.now = when
            if owner in self.suspended:
                self.parked.setdefault(owner, []).append((fn, args))
                continue
            fn(*args)
            self.events_executed += 1

    def run(self, until=None):
        if self.heap:
            self._dispatch(inf if until is None else until, lambda: not self.heap)
        if until is not None and until > self.now:
            self.now = until

    def run_until_triggered(self, event):
        self._dispatch(inf, lambda: event.done)


# Delays: zero, sub-ULP once the clock is at 1.0 or later (1e-17 there,
# 1e-16 too at 1.0 but not at 0.5), and ones that move the clock.
_DELAYS = st.sampled_from([0.0, 1e-17, 1e-16, 0.25, 1.0])
_AT_OFFSETS = st.sampled_from([-1.0, 0.0, 1e-17, 0.5])  # past, now, sub-ULP, future
_OWNERS = st.sampled_from([None, "a", "b"])
_OWNER = st.sampled_from(["a", "b"])
_LEAVES = st.one_of(
    st.tuples(st.sampled_from(["suspend", "resume", "discard"]), _OWNER),
    st.just(("trigger",)),
)


def _extend(inner):
    handlers = st.lists(inner, max_size=3)
    return st.one_of(
        st.tuples(st.just("schedule"), _DELAYS, _OWNERS, handlers),
        st.tuples(st.just("at"), _AT_OFFSETS, handlers),
        st.tuples(st.just("many"), _DELAYS, _OWNERS, st.lists(handlers, min_size=1, max_size=3)),
    )


_ACTIONS = st.recursive(_LEAVES, _extend, max_leaves=12)
_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("act"), _ACTIONS),
        st.tuples(st.just("run"), st.sampled_from([None, -0.5, 0.0, 0.3, 1.0])),
        st.just(("run_until_triggered",)),
    ),
    max_size=10,
)


def _interpret(kernel, succeed, steps):
    """Drive ``kernel`` through ``steps``; return what a caller can see:
    each handler's label and clock, and after each step the clock,
    ``events_executed``, ``pending_events`` and any error."""
    trace = []
    current = [kernel.event()]

    def handler(path, actions):
        def run():
            trace.append((path, kernel.now))
            for index, action in enumerate(actions):
                perform(path + (index,), action)

        return run

    def perform(path, action):
        kind = action[0]
        if kind == "suspend":
            kernel.suspend_owner(action[1])
        elif kind == "resume":
            kernel.resume_owner(action[1])
        elif kind == "discard":
            kernel.discard_parked(action[1])
        elif kind == "trigger":
            if not current[0].triggered:
                succeed(current[0])
        elif kind == "schedule":
            _, delay, owner, actions = action
            if owner is None:
                kernel.schedule(delay, handler(path, actions))
            else:
                kernel.schedule_owned(owner, delay, handler(path, actions))
        elif kind == "at":
            _, offset, actions = action
            kernel.schedule_at(kernel.now + offset, handler(path, actions))
        else:
            _, delay, owner, batches = action
            calls = [(handler(path + (i,), actions), ()) for i, actions in enumerate(batches)]
            kernel.schedule_many(owner, delay, calls)

    seen = []
    for number, step in enumerate(steps):
        error = None
        try:
            if step[0] == "act":
                perform((number,), step[1])
            elif step[0] == "run":
                kernel.run(until=None if step[1] is None else kernel.now + step[1])
            else:
                current[0] = kernel.event()
                kernel.run_until_triggered(current[0])
        except SimulationError as exc:
            error = str(exc)
        seen.append((kernel.now, kernel.events_executed, kernel.pending_events, error))
    kernel.run()
    seen.append((kernel.now, kernel.events_executed, kernel.pending_events, None))
    return trace, seen


class TestOrderEquivalence:
    """The two-queue kernel dispatches exactly what a one-heap ``(time,
    seq)`` kernel does, in the same order and at the same clock."""

    @settings(max_examples=300, deadline=None)
    @given(_STEPS)
    def test_matches_one_heap_reference(self, steps):
        ref = _RefKernel()
        expected = _interpret(ref, ref.succeed, steps)
        assert _interpret(Simulator(), lambda event: event.succeed(), steps) == expected

    def test_mid_instant_stop_then_outside_push(self):
        steps = [
            ("act", ("schedule", 1.0, None, [("trigger",), ("schedule", 0.0, None, [])])),
            ("act", ("schedule", 1.0, "a", [("schedule", 1e-17, None, [])])),
            ("run_until_triggered",),
            ("act", ("schedule", 0.0, None, [])),
            ("run", -0.5),
            ("act", ("many", 0.0, "a", [[], [("suspend", "a")]])),
        ]
        ref = _RefKernel()
        expected = _interpret(ref, ref.succeed, steps)
        assert _interpret(Simulator(), lambda event: event.succeed(), steps) == expected


# -- yielding a pool vs the grant event it replaced --------------------------


class _EventPool:
    """The reference grant path: ``request()`` returns an event that
    succeeds, with the pool as its value, when a slot is granted (FIFO);
    a process waits with ``yield pool.request()``."""

    def __init__(self, sim, capacity):
        self.sim = sim
        self.capacity = capacity
        self.in_use = 0
        self.total_grants = 0
        self._waiters = deque()

    @property
    def queue_length(self):
        return len(self._waiters)

    def request(self):
        event = Event(self.sim)
        if self.in_use < self.capacity:
            self._grant(event)
        else:
            self._waiters.append(event)
        return event

    def release(self):
        self.in_use -= 1
        if self._waiters:
            self._grant(self._waiters.popleft())

    def _grant(self, event):
        self.in_use += 1
        self.total_grants += 1
        event.succeed(self)


_WAITS = st.sampled_from(["bare", "timeout", "event"])
_HOLDS = st.sampled_from([0.0, 1e-17, 0.25, 0.5])
_POOL_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("hold"), st.integers(0, 1), _WAITS, _HOLDS),
        st.tuples(st.just("wait"), _WAITS, _HOLDS),
        st.tuples(st.just("lane"), st.integers(1, 3)),
    ),
    max_size=4,
)
_POOL_PROGRAMS = st.tuples(
    st.lists(st.integers(1, 3), min_size=1, max_size=2),  # capacities
    st.lists(st.tuples(st.sampled_from([0.0, 0.25, 1.0]), _POOL_OPS), min_size=1, max_size=8),
    st.lists(st.tuples(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.integers(0, 2)), max_size=4),
)


def _run_pool_program(program, make_pool, acquire):
    """Run ``program`` with pools from ``make_pool``; a process waits for
    a slot by yielding ``acquire(pool)``. Returns every handler's label
    and clock in dispatch order, ``(now, events_executed,
    pending_events)`` at each quarter instant, and the pools' tallies."""
    capacities, processes, bystanders = program
    sim = Simulator()
    pools = [make_pool(sim, capacity) for capacity in capacities]
    trace = []

    def log(label):
        trace.append((label, sim.now))

    def wait(kind, delay):
        if kind == "bare":
            return delay
        if kind == "timeout":
            return sim.timeout(delay)
        event = sim.event()
        sim.schedule(delay, event.succeed)
        return event

    def process(name, ops):
        log((name, "start"))
        for index, op in enumerate(ops):
            if op[0] == "hold":
                _, which, kind, hold = op
                pool = pools[which % len(pools)]
                granted = yield acquire(pool)
                log((name, index, "granted", granted is pool))
                yield wait(kind, hold)
                pool.release()
                log((name, index, "released"))
            elif op[0] == "lane":
                for lane_index in range(op[1]):
                    sim.schedule(0.0, log, (name, index, "lane", lane_index))
            else:
                yield wait(op[1], op[2])
                log((name, index, "woke"))

    def bystander(name, children):
        log(("bystander", name))
        for child in range(children):
            sim.schedule(0.0, log, ("bystander", name, child))

    for name, (start, ops) in enumerate(processes):
        sim.schedule(start, lambda name=name, ops=ops: sim.process(process(name, ops)))
    for name, (at, children) in enumerate(bystanders):
        sim.schedule(at, bystander, name, children)
    seen = []
    for quarter in range(12):
        sim.run(until=quarter * 0.25)
        seen.append((sim.now, sim.events_executed, sim.pending_events))
    sim.run()
    seen.append((sim.now, sim.events_executed, sim.pending_events))
    tallies = [(pool.in_use, pool.queue_length, pool.total_grants) for pool in pools]
    return trace, seen, tallies


class TestPoolGrantEquivalence:
    """``yield pool`` dispatches exactly what ``yield pool.request()``
    did through a grant event: the same resumes, in the same order, at
    the same clock, with the same dispatch count."""

    @settings(max_examples=300, deadline=None)
    @given(_POOL_PROGRAMS)
    def test_matches_event_grants(self, program):
        expected = _run_pool_program(program, _EventPool, lambda pool: pool.request())
        assert _run_pool_program(program, Resource, lambda pool: pool) == expected

    def test_contended_release_among_lane_work(self):
        # One slot, three waiters, releases at the instant other lane
        # work is due: every grant is one dispatch, FIFO.
        program = (
            [1],
            [(0.0, [("hold", 0, "bare", 0.0), ("lane", 2)])] * 3
            + [(0.0, [("hold", 0, "event", 0.25), ("wait", "timeout", 0.0)])],
            [(0.0, 2), (0.25, 1)],
        )
        expected = _run_pool_program(program, _EventPool, lambda pool: pool.request())
        assert _run_pool_program(program, Resource, lambda pool: pool) == expected
