"""Deep determinism: identical runs are identical at the event level,
across processes, and every planted hazard is caught at runtime."""

import math
import os
import random
import secrets
import subprocess
import sys
import time
import uuid
from pathlib import Path

import pytest

import repro
import tests.test_capabilities as cells
from repro import (
    CalvinCluster,
    ClientProfile,
    ClusterConfig,
    DeterminismViolation,
    FaultPlan,
    Microbenchmark,
    TpccWorkload,
)
from repro.engines import UNSUPPORTED
from repro.errors import SimulationError
from tests.differential import PLANTS, WORKLOADS


def build_and_run(seed=33, workload_factory=None):
    factory = workload_factory or (
        lambda: Microbenchmark(mp_fraction=0.3, hot_set_size=10, cold_set_size=100)
    )
    cluster = CalvinCluster(
        ClusterConfig(num_partitions=2, seed=seed), workload=factory()
    )
    cluster.load_workload_data()
    cluster.add_clients(ClientProfile(per_partition=6, max_txns=15))
    cluster.run(duration=0.2)
    cluster.quiesce()
    return cluster


class TestEventLevelDeterminism:
    def test_event_counts_identical(self):
        a, b = build_and_run(), build_and_run()
        assert a.sim.events_executed == b.sim.events_executed
        assert a.sim.now == b.sim.now

    def test_network_traffic_identical(self):
        a, b = build_and_run(), build_and_run()
        assert a.network.messages_sent == b.network.messages_sent
        assert a.network.bytes_sent == b.network.bytes_sent

    def test_metrics_identical(self):
        a, b = build_and_run(), build_and_run()
        assert a.metrics.committed == b.metrics.committed
        assert a.metrics.latency.mean == b.metrics.latency.mean
        assert a.metrics.throughput.total == b.metrics.throughput.total

    def test_input_logs_identical(self):
        a, b = build_and_run(), build_and_run()
        assert a.merged_log() == b.merged_log()

    def test_tpcc_runs_identical(self):
        def factory():
            return TpccWorkload()

        a = build_and_run(seed=44, workload_factory=factory)
        b = build_and_run(seed=44, workload_factory=factory)
        assert a.final_state() == b.final_state()
        assert a.metrics.restarts == b.metrics.restarts

    def test_node_stats_identical(self):
        a, b = build_and_run(), build_and_run()
        assert a.node_stats() == b.node_stats()


def build_and_run_replicated(seed=55, fault_plan=None):
    cluster = CalvinCluster(
        ClusterConfig(
            num_partitions=2, num_replicas=2, replication_mode="paxos", seed=seed
        ),
        workload=Microbenchmark(mp_fraction=0.3, hot_set_size=10, cold_set_size=100),
        fault_plan=fault_plan,
    )
    cluster.load_workload_data()
    cluster.add_clients(ClientProfile(per_partition=4, max_txns=12))
    cluster.run(duration=0.6)
    cluster.quiesce()
    return cluster


def healed_plan():
    """Crash replica 1 then restart it, plus a buffered cut — every
    fault heals, so after quiesce the cluster has fully recovered."""
    plan = FaultPlan(name="healed")
    plan.crash(at=0.12, replica=1, until=0.28, resync=True)
    plan.partition_sites(at=0.34, group_a=[0], group_b=[1], until=0.44, mode="buffer")
    return plan


class TestFaultedRunEquivalence:
    """A faulted-then-healed run converges to a fault-free-equivalent state."""

    def test_faulted_replicas_converge(self):
        faulted = build_and_run_replicated(fault_plan=healed_plan())
        fingerprints = faulted.replica_fingerprints()
        assert fingerprints[0] == fingerprints[1]

    def test_faulted_run_is_reproducible(self):
        a = build_and_run_replicated(fault_plan=healed_plan())
        b = build_and_run_replicated(fault_plan=healed_plan())
        assert a.replica_fingerprints() == b.replica_fingerprints()
        assert a.merged_log() == b.merged_log()
        assert a.fault_injector.trace == b.fault_injector.trace

    def test_faulted_state_matches_log_replay(self):
        """The committed state of a faulted run equals a deterministic
        replay of its own input log on a pristine cluster — faults may
        reshape the log (timing), never the state it determines."""
        faulted = build_and_run_replicated(fault_plan=healed_plan())
        replayed = CalvinCluster.replay(
            faulted.config,
            faulted.registry,
            faulted.catalog.partitioner,
            faulted.initial_data,
            faulted.merged_log(),
        )
        assert replayed.final_state() == faulted.final_state()

    def test_fault_free_run_unaffected_by_injector_availability(self):
        """Wiring the fault subsystem in must not perturb a fault-free
        run: an empty plan produces the same history as no plan."""
        clean = build_and_run_replicated()
        empty = build_and_run_replicated(fault_plan=FaultPlan(name="empty"))
        assert clean.replica_fingerprints() == empty.replica_fingerprints()
        assert clean.merged_log() == empty.merged_log()


ROOT = Path(__file__).resolve().parent.parent
SRC = Path(repro.__file__).resolve().parent.parent
#: The two interpreters of the differential: hash seed, allocator and
#: wall clock differ; nothing a run may depend on does.
INTERPRETERS = (
    {"PYTHONHASHSEED": "0"},
    {"PYTHONHASHSEED": "1", "PYTHONMALLOC": "malloc"},
)


def differential(*argv):
    """``python -m tests.differential *argv`` in both interpreters at
    once; their two outputs."""
    base = {key: value for key, value in os.environ.items() if key != "PYTHONMALLOC"}
    base["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    runs = [
        subprocess.Popen(
            [sys.executable, "-m", "tests.differential", *argv], cwd=ROOT,
            env={**base, **interpreter}, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
        )
        for interpreter in INTERPRETERS
    ]
    outputs = []
    for run in runs:
        out, err = run.communicate()
        assert run.returncode == 0, err
        outputs.append(out)
    return outputs


class TestAcrossHashSeeds:
    def test_two_hash_seeds_run_identically(self):
        """Every supported capability cell and every workload gives the
        same trace, final state and logged footprints, key by key, under
        two hash seeds and two allocators: no order follows the salted
        ``hash`` or ``id()``, and nothing reads the wall clock."""
        a, b = differential()
        assert a == b
        rows = {line.split()[0]: line.split()[1:] for line in a.splitlines()}
        supported = {
            f"{feature}-{engine}.0" for feature, engine in cells.CELLS
            if UNSUPPORTED[engine].get(feature) is None
        }
        assert set(rows) == supported | set(WORKLOADS)
        assert all(int(rows[name][3]) > 20 for name in WORKLOADS)  # logged
        assert int(rows["tpcc"][4]) > 0  # dependent TPC-C types ran


# -- planted determinism hazards ---------------------------------------------
# One per hazard a run must not depend on, each failing a tier-1 check.


class _HazardWorkload(Microbenchmark):
    """A microbenchmark whose every ``generate`` first calls ``hazard``
    with the cluster's simulator."""

    def __init__(self, hazard):
        super().__init__(mp_fraction=0.0, hot_set_size=10, cold_set_size=100)
        self.hazard = hazard
        self.sim = None

    def generate(self, rng, origin_partition, catalog):
        self.hazard(self.sim)
        return super().generate(rng, origin_partition, catalog)


#: (case, the hazard, what the sanitized run raises).
HAZARDS = [
    ("ambient-random", lambda sim: random.random(), DeterminismViolation),
    ("randbytes", lambda sim: random.randbytes(4), DeterminismViolation),
    ("unseeded-Random", lambda sim: random.Random().random(), DeterminismViolation),
    ("time.time", lambda sim: time.time(), DeterminismViolation),
    ("secrets.token_bytes", lambda sim: secrets.token_bytes(4), DeterminismViolation),
    ("os.urandom", lambda sim: os.urandom(4), DeterminismViolation),
    ("uuid4", lambda sim: uuid.uuid4(), DeterminismViolation),
    ("os.environ.get", lambda sim: os.environ.get("HOME"), DeterminismViolation),
    ("os.getenv", lambda sim: os.getenv("HOME"), DeterminismViolation),
    ("nan-delay", lambda sim: sim.schedule(math.inf - math.inf, len, ()), SimulationError),
]


class TestPlantedHazards:
    """Each hazard is caught by the run that meets it: ambient state by
    the sanitizer, a NaN delay by the kernel, and what no patch reaches
    (set order, address order, ``datetime.now``) by the differential."""

    @pytest.mark.parametrize(
        "hazard, caught", [row[1:] for row in HAZARDS], ids=[row[0] for row in HAZARDS]
    )
    def test_run_catches(self, hazard, caught):
        workload = _HazardWorkload(hazard)
        cluster = CalvinCluster(
            ClusterConfig(num_partitions=1, sanitize=True), workload=workload
        )
        workload.sim = cluster.sim
        cluster.load_workload_data()
        cluster.add_clients(ClientProfile(per_partition=1, max_txns=1))
        with pytest.raises(caught):
            cluster.run(duration=0.1)

    @pytest.mark.parametrize("plant", sorted(PLANTS))
    def test_differential_catches(self, plant):
        a, b = differential(plant)
        assert a and a != b
