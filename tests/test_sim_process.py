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
        def worker():
            yield 42

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
