"""Deep determinism: identical runs are identical at the event level,
across processes, and every planted hazard is caught at runtime."""

import math
import os
import random
import re
import secrets
import subprocess
import sys
import time
import uuid
from itertools import zip_longest
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
from repro.obs.spans import CAT_EPOCH, CAT_TXN, Span, SpanKind
from tests.differential import PLANTS, WORKLOADS, epoch_digests, span_epoch


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
#: The two interpreters of the differential, as (environment, argv
#: prefix): hash seed, allocator, wall clock and the order of the runs
#: differ; nothing a run may depend on does.
INTERPRETERS = (
    ({"PYTHONHASHSEED": "0"}, ()),
    ({"PYTHONHASHSEED": "1", "PYTHONMALLOC": "malloc"}, ("reversed",)),
)


def differential(*argv):
    """``python -m tests.differential *argv`` in both interpreters at
    once; their two outputs."""
    base = {key: value for key, value in os.environ.items() if key != "PYTHONMALLOC"}
    base["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    runs = [
        subprocess.Popen(
            [sys.executable, "-m", "tests.differential", *prefix, *argv], cwd=ROOT,
            env={**base, **interpreter}, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
        )
        for interpreter, prefix in INTERPRETERS
    ]
    outputs = []
    for run in runs:
        out, err = run.communicate()
        assert run.returncode == 0, err
        outputs.append(out)
    return outputs


def by_cluster(output):
    """Cluster name -> {line name: the rest of the line}, in print order."""
    clusters = {}
    for line in output.splitlines():
        name, rest = line.split(" ", 1)
        clusters.setdefault(name.split("@")[0], {})[name] = rest
    return clusters


def mismatch(a, b, *plant):
    """Where outputs ``a`` and ``b`` of the differential disagree, or
    None. Lines match by name, since interpreter B runs in reverse
    order. Names the first cluster, in A's order, with a differing line
    and the first of its epochs that differs; then reruns that cluster
    alone in both interpreters (``spans``) for the first differing span
    on each side."""
    clusters_a, clusters_b = by_cluster(a), by_cluster(b)
    differing = [name for name in {**clusters_a, **clusters_b}
                 if clusters_a.get(name) != clusters_b.get(name)]
    if not differing:
        return None
    cluster = differing[0]
    lines_a, lines_b = clusters_a.get(cluster, {}), clusters_b.get(cluster, {})
    epochs = sorted(int(name.split("@")[1]) for name in {**lines_a, **lines_b}
                    if "@" in name and lines_a.get(name) != lines_b.get(name))
    report = [f"{len(differing)} cluster(s) differ; the first is {cluster}",
              f"  A: {lines_a.get(cluster)}", f"  B: {lines_b.get(cluster)}"]
    if not epochs:
        return "\n".join(report + ["no epoch line differs: the final state, the logged "
                                   "footprints or the order across epochs does"])
    line = f"{cluster}@{epochs[0]}"
    report += [f"first differing epoch {line}",
               f"  A: {lines_a.get(line)}", f"  B: {lines_b.get(line)}"]
    spans_a, spans_b = (out.splitlines() for out in
                        differential("spans", cluster, str(epochs[0]), *plant))
    for index, (span_a, span_b) in enumerate(zip_longest(spans_a, spans_b)):
        if span_a != span_b:
            return "\n".join(report + [f"first differing span #{index}",
                                       f"  A: {span_a}", f"  B: {span_b}"])
    return "\n".join(report + [f"rerun alone, {line} has the same spans in both "
                               "interpreters: state leaked in from an earlier run"])


class TestAcrossHashSeeds:
    def test_two_hash_seeds_run_identically(self):
        """Every supported capability cell, the extra cells and every
        workload give the same trace, per-epoch spans, final state and
        logged footprints, key by key, under two hash seeds, two
        allocators and two run orders: no order follows the salted
        ``hash`` or ``id()``, nothing reads the wall clock, and no run
        leaks state into the next."""
        a, b = differential()
        problem = mismatch(a, b)
        assert problem is None, problem
        clusters = list(by_cluster(a))
        assert list(by_cluster(b)) == clusters[::-1]  # B really ran reversed
        rows = {line.split()[0]: line.split()[1:] for line in a.splitlines()}
        supported = {
            f"{feature}-{engine}.0" for feature, engine in cells.CELLS
            if UNSUPPORTED[engine].get(feature) is None
        }
        assert set(clusters) == (
            supported | {"wide-core.0"} | set(WORKLOADS)
        )
        assert all(int(rows[name][3]) > 20 for name in WORKLOADS)  # logged
        assert int(rows["tpcc"][4]) > 0  # dependent TPC-C types ran
        assert all(f"{name}@3" in rows for name in clusters)  # per-epoch lines


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
    (set order, address order, ``datetime.now``, a module-level counter
    that outlives a run) by the differential, which also locates where
    two runs split."""

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

    # The frozen sequencer is located, not just caught, below.
    @pytest.mark.parametrize("plant", sorted(set(PLANTS) - {"frozen-sequencer"}))
    def test_differential_catches(self, plant):
        a, b = differential(plant)
        assert a and mismatch(a, b, plant)

    def test_differential_locates_a_divergence(self):
        """A sequencer frozen at 31 ms and thawed after an ambient-random
        delay: the mismatch names the cell, an epoch no earlier than the
        freeze, and the first differing span on each side; every earlier
        epoch agrees."""
        a, b = differential("frozen-sequencer")
        problem = mismatch(a, b, "frozen-sequencer")
        assert problem
        first = re.search(r"first differing epoch micro@(\d+)", problem)
        assert first and int(first.group(1)) >= 3, problem
        span = re.search(r"first differing span #\d+\n  A: (.*)\n  B: (.*)", problem)
        assert span and span.group(1) != span.group(2), problem
        lines_a, lines_b = by_cluster(a)["micro"], by_cluster(b)["micro"]
        for epoch in range(int(first.group(1))):
            assert lines_a[f"micro@{epoch}"] == lines_b[f"micro@{epoch}"], epoch


# -- per-epoch span digests ----------------------------------------------------

EPOCH = 0.010


def txn_span(start, seq, txn_id=1):
    return Span(
        kind=SpanKind.EXECUTE, start=start, end=start + 0.001, cat=CAT_TXN,
        replica=0, partition=0, txn_id=txn_id, seq=seq,
    )


class TestSpanEpoch:
    def test_sequenced_span_uses_global_seq(self):
        span = txn_span(0.5, seq=(7, 0, 3))
        assert span_epoch(span, EPOCH) == 7

    def test_epoch_category_span_uses_detail(self):
        span = Span(
            kind=SpanKind.SEQUENCE, start=0.0, end=0.01,
            cat=CAT_EPOCH, detail=4,
        )
        assert span_epoch(span, EPOCH) == 4

    def test_untagged_span_binned_by_time(self):
        span = Span(kind=SpanKind.DISK, start=0.025, end=0.026, cat="device")
        assert span_epoch(span, EPOCH) == 2

    def test_epoch_boundary_rounds_into_the_closing_epoch(self):
        span = Span(kind=SpanKind.DISK, start=0.02, end=0.021, cat="device")
        assert span_epoch(span, EPOCH) == 2


def test_epoch_digests_shape():
    spans = [txn_span(0.001 * i, seq=(i // 5, 0, i)) for i in range(10)]
    digests = epoch_digests(spans, EPOCH)
    assert sorted(digests) == [0, 1]
    assert all(count == 5 for _, count in digests.values())
