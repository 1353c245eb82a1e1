"""Pure-Python vs accelerated kernel: bit-identical, or the accel loses.

The C dispatch core (`repro.accel._accelcore`) is only allowed to make
the simulator *faster*. Every test here runs the same scenario through
both paths in one process — flipping `repro.accel.force()` between
runs — and requires identical results: the golden digest matrix,
event-by-event FIFO ordering, suspend/park semantics, budget and
horizon edge cases, and the `run_until_triggered` early-exit loop.

Skipped wholesale when the extension is not built (`python -m
repro.accel.build` builds it in-tree); CI's accel job builds it first,
so the matrix is enforced there even if a dev machine skips.
"""

from __future__ import annotations

import pytest

from repro import ClientProfile, accel
from repro.errors import SimulationError
from repro.sim.events import Event
from repro.sim.kernel import Simulator

from tests.test_golden_digests import (
    GOLDEN_BASELINE,
    GOLDEN_CALVIN,
    GOLDEN_CHAOS,
    GOLDEN_GEO,
    GOLDEN_STAR,
    _run_calvin,
)

pytestmark = pytest.mark.skipif(
    not accel.accel_available(),
    reason="accelerated kernel not built (python -m repro.accel.build)",
)


def _both_paths(fn):
    """Run ``fn()`` pure then accelerated; return both results."""
    try:
        accel.force(False)
        pure = fn()
        accel.force(True)
        fast = fn()
    finally:
        accel.force(None)
    return pure, fast


# ---------------------------------------------------------------------------
# Golden equivalence matrix: every checked-in digest row, both paths.
# ---------------------------------------------------------------------------

def test_golden_calvin_both_paths():
    pure, fast = _both_paths(lambda: _run_calvin(seed=2012))
    assert pure == GOLDEN_CALVIN
    assert fast == GOLDEN_CALVIN


def test_golden_chaos_both_paths():
    pure, fast = _both_paths(
        lambda: _run_calvin(seed=7, replicas=2, fault_profile="chaos-mix",
                            duration=0.5)
    )
    assert pure == GOLDEN_CHAOS
    assert fast == GOLDEN_CHAOS


def test_golden_baseline_both_paths():
    from repro import ClusterConfig
    from repro.baseline.cluster import BaselineCluster
    from repro.obs import TraceRecorder
    from tests.test_golden_digests import _workload

    def scenario():
        tracer = TraceRecorder()
        cluster = BaselineCluster(
            ClusterConfig(num_partitions=2, seed=2012),
            workload=_workload(), tracer=tracer,
        )
        cluster.load_workload_data()
        cluster.add_clients(ClientProfile(per_partition=4, max_txns=10))
        cluster.run(duration=0.3)
        cluster.quiesce()
        return (tracer.digest(), cluster.sim.events_executed,
                cluster.metrics.committed)

    pure, fast = _both_paths(scenario)
    assert pure == GOLDEN_BASELINE
    assert fast == GOLDEN_BASELINE


def test_golden_star_both_paths():
    from repro import ClusterConfig
    from repro.engines import build_cluster
    from repro.obs import TraceRecorder
    from tests.test_golden_digests import _workload

    def scenario():
        tracer = TraceRecorder()
        config = ClusterConfig(num_partitions=2, num_replicas=1, seed=2012,
                               engine="star")
        cluster = build_cluster(config, workload=_workload(), tracer=tracer)
        cluster.load_workload_data()
        cluster.add_clients(ClientProfile(per_partition=4, max_txns=10))
        cluster.run(duration=0.3)
        cluster.quiesce()
        return (tracer.digest(), cluster.sim.events_executed,
                cluster.metrics.committed)

    pure, fast = _both_paths(scenario)
    assert pure == GOLDEN_STAR
    assert fast == GOLDEN_STAR


def test_golden_geo_both_paths():
    from repro import CalvinCluster, ClusterConfig
    from repro.obs import TraceRecorder
    from tests.test_golden_digests import _workload

    def scenario():
        tracer = TraceRecorder()
        config = ClusterConfig(
            num_partitions=2,
            num_replicas=3,
            replication_mode="paxos",
            topology="ring",
            partial_hosting=((0, 1), (0,), (1,)),
            seed=2012,
        )
        cluster = CalvinCluster(config, workload=_workload(), tracer=tracer)
        cluster.load_workload_data()
        cluster.add_clients(ClientProfile(per_partition=4, max_txns=10))
        cluster.run(duration=0.6)
        cluster.quiesce()
        return (tracer.digest(), cluster.sim.events_executed,
                cluster.metrics.committed)

    pure, fast = _both_paths(scenario)
    assert pure == GOLDEN_GEO
    assert fast == GOLDEN_GEO


# ---------------------------------------------------------------------------
# Kernel micro-semantics under the compiled loop (parametrised both ways,
# so a pure-path regression shows up in the same place).
# ---------------------------------------------------------------------------

def test_status_reports_forced_path(kernel_path):
    status = accel.accel_status()
    assert status["available"] is True
    assert status["forced"] is kernel_path
    assert accel.accel_active() is kernel_path


def test_fifo_ordering_and_now(kernel_path):
    sim = Simulator()
    order = []

    def note(tag):
        order.append((tag, sim.now))

    for tag in ("a", "b", "c"):
        sim.schedule(0.5, note, tag)   # same timestamp: FIFO by schedule order
    sim.schedule(0.25, note, "early")
    sim.run(until=1.0)
    assert order == [("early", 0.25), ("a", 0.5), ("b", 0.5), ("c", 0.5)]
    assert sim.now == 1.0
    assert sim.events_executed == 4


def test_schedule_many_from_callback(kernel_path):
    sim = Simulator()
    seen = []

    def fanout():
        for index in range(100):
            sim.schedule(0.001 * index, seen.append, index)

    sim.schedule(0.0, fanout)
    sim.run(until=1.0)
    assert seen == list(range(100))
    assert sim.events_executed == 101


def test_suspend_resume_parks_and_replays(kernel_path):
    sim = Simulator()
    ran = []
    owner = "node-0"
    sim.schedule(0.1, ran.append, "before")
    sim.suspend_owner(owner)
    sim.schedule_owned(owner, 0.2, ran.append, "parked")
    sim.schedule(0.3, ran.append, "after")
    sim.run(until=0.5)
    # The owned entry was parked, not run; unowned entries proceeded.
    assert ran == ["before", "after"]
    sim.resume_owner(owner)
    sim.run(until=1.0)
    assert ran == ["before", "after", "parked"]


def test_budget_exceeded_message_identical():
    def scenario():
        sim = Simulator()

        def livelock():
            sim.schedule(0.0, livelock)

        sim.schedule(0.0, livelock)
        with pytest.raises(SimulationError) as excinfo:
            sim.run(until=1.0, max_events=50)
        return str(excinfo.value), sim.events_executed

    pure, fast = _both_paths(scenario)
    assert pure == fast
    assert "max_events=50" in pure[0]
    assert pure[1] == 50


def test_run_until_triggered_both_paths():
    def scenario():
        sim = Simulator()
        event = Event(sim)
        sim.schedule(0.2, event.succeed, "payload")
        sim.schedule(0.1, lambda: None)
        sim.schedule(5.0, lambda: None)  # later event must NOT run
        value = sim.run_until_triggered(event)
        return value, sim.now, sim.events_executed

    pure, fast = _both_paths(scenario)
    assert pure == fast
    assert pure[0] == "payload"
    assert pure[1] == pytest.approx(0.2)


def test_run_until_triggered_drained_error(kernel_path):
    sim = Simulator()
    event = Event(sim)
    sim.schedule(0.1, lambda: None)
    with pytest.raises(SimulationError, match="drained"):
        sim.run_until_triggered(event)


def test_run_until_triggered_limit_error(kernel_path):
    sim = Simulator()
    event = Event(sim)
    sim.schedule(2.0, event.succeed, None)
    with pytest.raises(SimulationError, match="not triggered before"):
        sim.run_until_triggered(event, limit=1.0)


def test_forcing_unbuilt_is_loud(monkeypatch):
    monkeypatch.setattr(accel, "_core", None)
    with pytest.raises(RuntimeError, match="not built"):
        accel.force(True)
