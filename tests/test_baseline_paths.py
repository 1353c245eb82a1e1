"""Baseline (2PL+2PC) execution-path tests beyond the lock table."""

import random
from typing import Dict

import pytest

from repro import ClientProfile, ClusterConfig, TxnSpec, Workload
from repro.baseline import BaselineCluster
from repro.partition.partitioner import FuncPartitioner
from repro.txn.procedures import Procedure, ProcedureRegistry


class TwoKeyWorkload(Workload):
    """Deterministic two-key read-modify-write; optionally cross-partition."""

    name = "twokey"

    def __init__(self, cross_partition=True):
        self.cross_partition = cross_partition

    def register(self, registry: ProcedureRegistry) -> None:
        def bump(ctx):
            for key in sorted(ctx.txn.write_set, key=repr):
                ctx.write(key, (ctx.read(key) or 0) + 1)
            return True

        registry.register(Procedure("bump", bump, logic_cpu=20e-6))

    def build_partitioner(self, num_partitions: int):
        return FuncPartitioner(num_partitions, lambda key: key[1])

    def initial_data(self, catalog) -> Dict:
        return {
            ("k", p, i): 0
            for p in range(catalog.num_partitions)
            for i in range(20)
        }

    def generate(self, rng: random.Random, origin_partition: int, catalog) -> TxnSpec:
        first = ("k", origin_partition, rng.randrange(20))
        if self.cross_partition and catalog.num_partitions > 1:
            other = (origin_partition + 1) % catalog.num_partitions
        else:
            other = origin_partition
        second = ("k", other, rng.randrange(20))
        keys = frozenset({first, second})
        return TxnSpec("bump", None, keys, keys)


def run_baseline(cross=True, partitions=2, seed=3):
    workload = TwoKeyWorkload(cross_partition=cross)
    cluster = BaselineCluster(
        ClusterConfig(num_partitions=partitions, seed=seed), workload=workload
    )
    cluster.load_workload_data()
    cluster.add_clients(ClientProfile(per_partition=4, max_txns=15))
    cluster.run(duration=0.3)
    cluster.quiesce()
    return cluster


class TestTwoPhaseCommitPaths:
    def test_distributed_commits_apply_everywhere(self):
        cluster = run_baseline(cross=True)
        assert cluster.metrics.committed > 0
        # Atomicity across partitions: the sum of all values equals the
        # number of key-increments of committed transactions — obtained
        # from per-store write counters (each commit applies each of its
        # writes exactly once, on the owning partition).
        total = sum(cluster.final_state().values())
        applied = sum(node.store.writes for node in cluster.nodes.values())
        assert total == applied

    def test_log_forced_for_distributed_txns(self):
        cluster = run_baseline(cross=True)
        forces = sum(node.log.forces for node in cluster.nodes.values())
        # Prepare forces at both participants + decision force at the
        # coordinator -> at least 3 per distributed commit.
        assert forces >= cluster.metrics.committed * 3 * 0.5

    def test_local_txns_single_force(self):
        cluster = run_baseline(cross=False, partitions=1)
        forces = sum(node.log.forces for node in cluster.nodes.values())
        assert cluster.metrics.committed > 0
        # One force per local commit (group-committed).
        assert forces == cluster.metrics.committed

    def test_no_locks_leak(self):
        cluster = run_baseline(cross=True)
        for node in cluster.nodes.values():
            assert node.locks.active_locks == 0
            assert not node._prepared
            assert not node._coord

    def test_group_commit_batches_under_load(self):
        cluster = run_baseline(cross=False, partitions=1)
        log = cluster.nodes[0].log
        assert log.average_batch_size >= 1.0


class TestDependentRejection:
    def test_baseline_rejects_ollp_transactions(self):
        from repro import ConfigError
        from repro.txn.transaction import Transaction

        cluster = run_baseline(cross=False, partitions=1)
        node = cluster.nodes[0]
        txn = Transaction.create(
            txn_id=9999, procedure="bump", args=None,
            read_set=[("k", 0, 0)], write_set=[("k", 0, 0)],
            dependent=True,
        )
        with pytest.raises(ConfigError):
            # Drive the coordinator generator one step.
            gen = node._coordinate(txn)
            next(gen)
