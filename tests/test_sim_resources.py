"""Unit tests for counted resources, driven by processes that yield the pool."""

import pytest

from repro.errors import SimulationError
from repro.sim import Resource, Simulator


@pytest.fixture
def sim():
    return Simulator()


def _holder(sim, pool, log, name, hold=None):
    """Wait for a slot, log the grant, then hold it for ``hold`` (None:
    keep it until the test releases it)."""
    granted = yield pool
    assert granted is pool
    log.append((name, sim.now))
    if hold is not None:
        yield hold
        pool.release()


class TestResource:
    def test_capacity_validation(self, sim):
        with pytest.raises(SimulationError):
            Resource(sim, 0)

    def test_grants_up_to_capacity(self, sim):
        pool = Resource(sim, 2)
        log = []
        for name in "abc":
            sim.process(_holder(sim, pool, log, name))
        sim.run()
        assert log == [("a", 0.0), ("b", 0.0)]
        assert pool.in_use == 2
        assert pool.queue_length == 1

    def test_release_grants_fifo(self, sim):
        pool = Resource(sim, 1)
        log = []
        for name in "abc":
            sim.process(_holder(sim, pool, log, name))
        sim.run()
        assert [name for name, _ in log] == ["a"]
        pool.release()
        sim.run()
        assert [name for name, _ in log] == ["a", "b"]
        pool.release()
        sim.run()
        assert [name for name, _ in log] == ["a", "b", "c"]
        assert pool.in_use == 1 and pool.queue_length == 0

    def test_release_idle_rejected(self, sim):
        pool = Resource(sim, 1)
        with pytest.raises(SimulationError):
            pool.release()
        # A pool its holders have drained is idle again.
        sim.process(_holder(sim, pool, [], "a", hold=1.0))
        sim.run()
        assert pool.in_use == 0
        with pytest.raises(SimulationError):
            pool.release()

    def test_total_grants_counted(self, sim):
        pool = Resource(sim, 1)
        for name in "ab":
            sim.process(_holder(sim, pool, [], name, hold=1.0))
        sim.run()
        assert pool.total_grants == 2
        assert pool.in_use == 0

    def test_utilization_full(self, sim):
        pool = Resource(sim, 1)
        sim.process(_holder(sim, pool, [], "a", hold=1.0))
        sim.run()
        assert pool.utilization(1.0) == pytest.approx(1.0)

    def test_utilization_half(self, sim):
        pool = Resource(sim, 2)
        sim.process(_holder(sim, pool, [], "a", hold=1.0))
        sim.run()
        assert pool.utilization(1.0) == pytest.approx(0.5)

    def test_queueing_process_flow(self, sim):
        pool = Resource(sim, 1)
        finish_times = []

        def worker():
            yield pool
            yield sim.timeout(1.0)
            pool.release()
            finish_times.append(sim.now)

        for _ in range(3):
            sim.process(worker())
        sim.run()
        assert finish_times == [pytest.approx(1.0), pytest.approx(2.0), pytest.approx(3.0)]
