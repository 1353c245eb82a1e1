"""Unit tests for generator-based processes."""

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestProcess:
    def test_sequence_of_timeouts(self, sim):
        trace = []

        def worker():
            trace.append(("start", sim.now))
            yield sim.timeout(1.0)
            trace.append(("mid", sim.now))
            yield sim.timeout(2.0)
            trace.append(("end", sim.now))
            return "finished"

        process = sim.process(worker())
        sim.run()
        assert trace == [("start", 0.0), ("mid", 1.0), ("end", 3.0)]
        assert process.triggered
        assert process.value == "finished"

    def test_receives_event_value(self, sim):
        def worker():
            value = yield sim.timeout(1.0, "hello")
            return value

        process = sim.process(worker())
        sim.run()
        assert process.value == "hello"

    def test_process_waits_on_process(self, sim):
        def child():
            yield sim.timeout(2.0)
            return 99

        def parent():
            result = yield sim.process(child())
            return result + 1

        process = sim.process(parent())
        sim.run()
        assert process.value == 100

    def test_exception_fails_process(self, sim):
        def worker():
            yield sim.timeout(1.0)
            raise RuntimeError("kaput")

        process = sim.process(worker())
        with pytest.raises(RuntimeError, match="kaput"):
            sim.run()  # nobody waits on the process: its failure surfaces
        assert process.ok is False
        assert isinstance(process.value, RuntimeError)

    def test_failed_event_raises_inside_process(self, sim):
        bad = sim.event()
        sim.schedule(1.0, lambda: bad.fail(KeyError("missing")))
        caught = []

        def worker():
            try:
                yield bad
            except KeyError as exc:
                caught.append(exc)
            return "survived"

        process = sim.process(worker())
        sim.run()
        assert process.value == "survived"
        assert len(caught) == 1

    def test_yielding_non_event_fails(self, sim):
        # A number is a bare delay; anything else that is not an Event
        # is refused.
        def worker():
            yield "42"

        process = sim.process(worker())
        with pytest.raises(SimulationError, match="non-event"):
            sim.run()
        assert process.ok is False
        assert isinstance(process.value, SimulationError)

    def test_requires_generator(self, sim):
        with pytest.raises(SimulationError):
            sim.process(lambda: None)

    def test_immediate_return(self, sim):
        def worker():
            return "instant"
            yield  # pragma: no cover

        process = sim.process(worker())
        sim.run()
        assert process.value == "instant"

    def test_parallel_processes_interleave(self, sim):
        trace = []

        def worker(name, delay):
            yield sim.timeout(delay)
            trace.append(name)

        sim.process(worker("slow", 2.0))
        sim.process(worker("fast", 1.0))
        sim.run()
        assert trace == ["fast", "slow"]

    def test_all_of_inside_process(self, sim):
        def worker():
            values = yield sim.all_of([sim.timeout(1.0, "a"), sim.timeout(2.0, "b")])
            return values

        process = sim.process(worker())
        sim.run()
        assert process.value == ["a", "b"]
        assert sim.now == pytest.approx(2.0)


class TestBareDelay:
    """A process may yield a number instead of ``sim.timeout(number)``."""

    @staticmethod
    def _trace(wait, delay):
        """Two waiting processes among same-instant bystanders; the
        dispatch trace, the clock and ``events_executed``."""
        sim = Simulator()
        trace = []

        def worker(name):
            trace.append((name, "start", sim.now))
            yield wait(sim, delay)
            trace.append((name, "woke", sim.now))
            sim.schedule(0.0, trace.append, (name, "after", sim.now))

        def start():
            sim.schedule(delay, trace.append, ("bystander", "before", sim.now))
            sim.process(worker("p"))
            sim.schedule(0.0, trace.append, ("bystander", "now", sim.now))
            sim.process(worker("q"))
            sim.schedule(delay, trace.append, ("bystander", "after", sim.now))

        # At t=1.0, 1e-17 is too small to move the clock.
        sim.schedule(1.0, start)
        sim.run()
        return trace, sim.now, sim.events_executed

    @pytest.mark.parametrize("delay", [0, 0.0, 1e-17, 0.5, 2])
    def test_same_dispatches_as_a_timeout(self, delay):
        bare = self._trace(lambda sim, d: d, delay)
        timeout = self._trace(lambda sim, d: sim.timeout(d), delay)
        assert bare == timeout

    @pytest.mark.parametrize("delay", [0, 0.0, 2])
    def test_resumes_with_none(self, sim, delay):
        def worker():
            value = yield delay
            return value, sim.now

        process = sim.process(worker())
        sim.run()
        assert process.ok
        assert process.value == (None, float(delay))

    @pytest.mark.parametrize("delay", [-1.0, float("nan"), True], ids=["negative", "nan", "bool"])
    def test_invalid_delay_fails_the_process(self, sim, delay):
        def worker():
            yield delay

        process = sim.process(worker())
        with pytest.raises(SimulationError):
            sim.run()
        assert process.ok is False
        assert isinstance(process.value, SimulationError)

    def test_invalid_delay_is_thrown_at_the_yield(self, sim):
        def worker():
            try:
                yield -1.0
            except SimulationError:
                yield 1.0
                return "recovered"

        process = sim.process(worker())
        sim.run()
        assert process.value == "recovered"
        assert sim.now == 1.0

    @pytest.mark.parametrize("target", ["0.5", None, [1.0]], ids=["str", "none", "list"])
    def test_neither_number_nor_event_fails(self, sim, target):
        def worker():
            yield target

        process = sim.process(worker())
        with pytest.raises(SimulationError, match="yielded non-event"):
            sim.run()
        assert process.ok is False
