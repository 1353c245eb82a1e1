"""The collector-quiet simulator: what the pause rests on, and its contract.

``Simulator.run`` / ``run_until_triggered`` switch CPython's cyclic
collector off while they dispatch (docs/performance.md, "Garbage
collection"). That is only sound because a running cluster produces no
unreachable cycles, so the first half of this file holds that invariant
on the five perf-ledger shapes and on a crash/restart; the second half
pins the collector-state contract on both entry points, and the third
the canonical keys that pay for the memory the pause costs.
"""

from __future__ import annotations

import gc
import hashlib
import random

import pytest

from repro import CalvinCluster, ClientProfile, ClusterConfig, Microbenchmark
from repro.errors import SimulationError
from repro.partition import Catalog
from repro.sim.kernel import Simulator

from ledger.workloads import SPECS, WARMUP, build


@pytest.fixture
def collector_enabled():
    """Tests below switch the collector about; leave it as pytest had it."""
    was_enabled = gc.isenabled()
    gc.enable()
    try:
        yield
    finally:
        (gc.enable if was_enabled else gc.disable)()


# ---------------------------------------------------------------------------
# (a, b) A live cluster makes no garbage only the cyclic collector can free.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.name)
def test_a_window_leaves_nothing_unreachable(spec):
    # The ledger's own shapes at its smoke size: flat micro, contended
    # micro, TPC-C, 3-replica Paxos + ring + partial hosting, open loop +
    # split + remove_node. ``cluster`` stays referenced throughout.
    cluster, _admin = build(spec, 2012, spec.smoke_window)
    cluster.sim.run(until=WARMUP)
    gc.collect()
    cluster.sim.run(until=WARMUP + spec.smoke_window)
    assert gc.collect() == 0
    assert cluster.metrics.committed > 0


# Measured: 0. The slack is for a crash path that one day drops a node's
# volatile state (parked timers, half-run executors) instead of parking it.
UNREACHABLE_PER_CRASH = 64


@pytest.mark.parametrize("clients", [3, 30])
def test_a_crash_leaves_garbage_per_crash_not_per_transaction(clients):
    config = ClusterConfig(
        num_partitions=2, num_replicas=2, replication_mode="paxos",
        seed=31, fault_profile="replica-crash", fault_horizon=0.5,
    )
    cluster = CalvinCluster(
        config, workload=Microbenchmark(hot_set_size=100, cold_set_size=1000)
    )
    cluster.load_workload_data()
    cluster.add_clients(ClientProfile(per_partition=clients))
    gc.collect()
    cluster.run(duration=0.7)
    unreachable = gc.collect()
    crashes = sum(1 for event in cluster.fault_injector.trace if event[1] == "crash")
    assert crashes == 2
    assert cluster.metrics.committed >= 6 * clients
    assert unreachable <= UNREACHABLE_PER_CRASH * crashes


# ---------------------------------------------------------------------------
# (c, d) Collector state across run / run_until_triggered.
# ---------------------------------------------------------------------------


def _run(sim):
    sim.run()


def _run_until_triggered(sim):
    event = sim.event()
    sim.schedule(2.0, event.succeed)
    sim.run_until_triggered(event)


DRIVERS = pytest.mark.parametrize(
    "drive", [_run, _run_until_triggered], ids=["run", "run_until_triggered"]
)


@DRIVERS
def test_enabled_stays_enabled_and_handlers_see_it_off(drive, collector_enabled):
    sim = Simulator()
    seen = []
    sim.schedule(1.0, lambda: seen.append(gc.isenabled()))
    drive(sim)
    assert seen == [False]
    assert gc.isenabled()


@DRIVERS
def test_a_callers_own_disable_is_left_alone(drive, collector_enabled):
    gc.disable()
    sim = Simulator()
    seen = []
    sim.schedule(1.0, lambda: seen.append(gc.isenabled()))
    drive(sim)
    assert seen == [False]
    assert not gc.isenabled()


@DRIVERS
@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_state_restored_when_a_handler_raises(drive, enabled, collector_enabled):
    def boom():
        raise ValueError("handler failed")

    (gc.enable if enabled else gc.disable)()
    sim = Simulator()
    sim.schedule(1.0, boom)
    with pytest.raises(ValueError, match="handler failed"):
        drive(sim)
    assert gc.isenabled() is enabled


@DRIVERS
@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_state_restored_when_max_events_trips(drive, enabled, collector_enabled):
    def again():
        sim.schedule(0.001, again)

    (gc.enable if enabled else gc.disable)()
    sim = Simulator()
    sim.schedule(0.0, again)
    with pytest.raises(SimulationError, match="max_events=50"):
        if drive is _run:
            sim.run(max_events=50)
        else:
            sim.run_until_triggered(sim.event(), max_events=50)
    assert gc.isenabled() is enabled


def test_collection_resumes_between_runs(collector_enabled):
    # The pause is per call: between two runs the collector is on, so a
    # cycle dropped meanwhile is reclaimed at CPython's own cadence.
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run(until=2.0)
    collections = gc.get_stats()[0]["collections"]
    for _ in range(5000):
        cycle = []
        cycle.append(cycle)
    assert gc.get_stats()[0]["collections"] > collections
    sim.run(until=3.0)
    assert gc.isenabled()


# ---------------------------------------------------------------------------
# (e) Canonical keys: shared objects, and the same draws as ever.
# ---------------------------------------------------------------------------

# shape -> (workload knobs, partitions, digest of ten generated write
# sets). The digests were taken from the generator as it was *before* it
# handed out shared key objects (it built a fresh tuple per key), with
# random.Random(2012) and origins 0, 1, 2, ... modulo the partition count.
KEY_SHAPES = {
    "single": (
        dict(mp_fraction=0.0, hot_set_size=100, cold_set_size=1000),
        2,
        "6b8da545a52a0d1f",
    ),
    "fanout": (
        dict(mp_fraction=1.0, partitions_per_txn=3, hot_set_size=10, cold_set_size=1000),
        4,
        "17b5c706956b4b1a",
    ),
    "archive": (
        dict(mp_fraction=0.3, archive_fraction=0.5, hot_set_size=100,
             cold_set_size=1000, archive_set_size=500),
        2,
        "ea056164c7ed1469",
    ),
}


def _ten_specs(workload, partitions):
    catalog = Catalog(
        ClusterConfig(num_partitions=partitions), workload.build_partitioner(partitions)
    )
    rng = random.Random(2012)
    return [workload.generate(rng, i % partitions, catalog) for i in range(10)], catalog


@pytest.mark.parametrize("shape", sorted(KEY_SHAPES))
def test_key_sequence_is_the_pinned_one(shape):
    knobs, partitions, pinned = KEY_SHAPES[shape]
    specs, _catalog = _ten_specs(Microbenchmark(**knobs), partitions)
    text = repr([sorted(spec.write_set) for spec in specs])
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == pinned
    assert all(spec.read_set is spec.write_set for spec in specs)


@pytest.mark.parametrize("shape", sorted(KEY_SHAPES))
@pytest.mark.parametrize("load_first", [True, False], ids=["load-first", "generate-first"])
def test_generated_keys_are_the_loaded_objects(shape, load_first):
    knobs, partitions, _pinned = KEY_SHAPES[shape]
    workload = Microbenchmark(**knobs)
    specs = None if load_first else _ten_specs(workload, partitions)[0]
    cluster = CalvinCluster(ClusterConfig(num_partitions=partitions), workload=workload)
    cluster.load_workload_data()
    if specs is None:
        specs = _ten_specs(workload, partitions)[0]
    stored = {
        id(key)
        for partition in range(partitions)
        for key in cluster.node(0, partition).store.keys()
    }
    for spec in specs:
        assert all(id(key) in stored for key in spec.write_set)


def test_key_lists_follow_the_partition_count():
    workload = Microbenchmark(hot_set_size=10, cold_set_size=100)
    two, _ = _ten_specs(workload, 2)
    four, _ = _ten_specs(workload, 4)
    assert {key[1] for spec in two for key in spec.write_set} == {0, 1}
    assert {key[1] for spec in four for key in spec.write_set} == {0, 1, 2, 3}
    assert len(workload.initial_data(_ten_specs(workload, 3)[1])) == 3 * 110
