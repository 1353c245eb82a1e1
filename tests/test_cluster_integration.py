"""End-to-end cluster correctness: serializability, determinism, replicas."""

import pytest

from repro import (
    CalvinCluster,
    ClientProfile,
    ClusterConfig,
    Microbenchmark,
    TpccWorkload,
    check_replica_consistency,
    check_serializability,
)
from tests.conftest import BankWorkload, run_bounded_cluster


class TestSerializability:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_microbenchmark_serializable(self, seed):
        workload = Microbenchmark(mp_fraction=0.3, hot_set_size=10, cold_set_size=100)
        cluster = run_bounded_cluster(
            workload, ClusterConfig(num_partitions=3, seed=seed)
        )
        assert check_serializability(cluster) > 0

    def test_bank_conserves_money_and_serializes(self):
        workload = BankWorkload(accounts_per_partition=20)
        cluster = run_bounded_cluster(
            workload, ClusterConfig(num_partitions=3, seed=11), max_txns=30
        )
        check_serializability(cluster)
        total = sum(cluster.final_state().values())
        assert total == 3 * 20 * 100  # transfers conserve money

    def test_tpcc_mix_serializable(self):
        workload = TpccWorkload()
        cluster = run_bounded_cluster(
            workload, ClusterConfig(num_partitions=2, seed=7),
            clients_per_partition=8, max_txns=20,
        )
        checked = check_serializability(cluster)
        assert checked >= 2 * 8 * 20  # restarts add extra history entries

    def test_microbenchmark_sum_invariant(self):
        workload = Microbenchmark(mp_fraction=0.5, hot_set_size=5, cold_set_size=50)
        cluster = run_bounded_cluster(
            workload, ClusterConfig(num_partitions=2, seed=3)
        )
        total = sum(cluster.final_state().values())
        assert total == 10 * cluster.metrics.committed


class TestDeterminism:
    def run_once(self, seed=5):
        workload = Microbenchmark(mp_fraction=0.2, hot_set_size=10, cold_set_size=100)
        return run_bounded_cluster(
            workload, ClusterConfig(num_partitions=2, seed=seed)
        )

    def test_same_seed_identical_final_state(self):
        assert self.run_once().final_state() == self.run_once().final_state()

    def test_same_seed_identical_history(self):
        a, b = self.run_once(), self.run_once()
        assert [(s, t.txn_id, st) for s, t, st in a.sorted_history()] == [
            (s, t.txn_id, st) for s, t, st in b.sorted_history()
        ]

    def test_different_seed_differs(self):
        assert self.run_once(seed=5).final_state() != self.run_once(seed=6).final_state()

    def test_log_replay_reproduces_state(self):
        cluster = self.run_once()
        replayed = CalvinCluster.replay(
            cluster.config,
            cluster.registry,
            cluster.catalog.partitioner,
            cluster.initial_data,
            cluster.merged_log(),
        )
        assert replayed.final_state() == cluster.final_state()


class TestReplication:
    def run_replicated(self, mode, replicas):
        workload = Microbenchmark(mp_fraction=0.25, hot_set_size=10, cold_set_size=100)
        config = ClusterConfig(
            num_partitions=2, num_replicas=replicas, replication_mode=mode, seed=9
        )
        cluster = CalvinCluster(config, workload=workload)
        cluster.load_workload_data()
        cluster.add_clients(ClientProfile(per_partition=8, max_txns=20))
        cluster.run(duration=0.2)
        cluster.quiesce()
        return cluster

    def test_async_replicas_consistent(self):
        cluster = self.run_replicated("async", 2)
        check_replica_consistency(cluster)
        check_serializability(cluster)

    def test_paxos_replicas_consistent(self):
        cluster = self.run_replicated("paxos", 3)
        check_replica_consistency(cluster)
        check_serializability(cluster)

    def test_paxos_commits_despite_wan(self):
        cluster = self.run_replicated("paxos", 3)
        assert cluster.metrics.committed >= 2 * 8 * 20 * 0.9

    def test_replica_fingerprints_shape(self):
        cluster = self.run_replicated("async", 2)
        prints = cluster.replica_fingerprints()
        assert set(prints) == {0, 1}
        assert len(prints[0]) == 2


class TestDependentWorkloadIntegration:
    def test_tpcc_delivery_eventually_delivers(self):
        workload = TpccWorkload(
            mix={"new_order": 0.7, "delivery": 0.3}, remote_fraction=0.0
        )
        cluster = run_bounded_cluster(
            workload, ClusterConfig(num_partitions=1, seed=13),
            clients_per_partition=6, max_txns=30,
        )
        check_serializability(cluster)
        state = cluster.final_state()
        delivered = sum(
            1 for key, value in state.items()
            if key[0] == "order" and value["carrier"] is not None
        )
        assert delivered > 0
        assert cluster.metrics.per_procedure.get("delivery", 0) > 0


class TestConflictOrderChecker:
    def test_conflict_order_holds(self):
        from repro import check_conflict_order

        workload = Microbenchmark(mp_fraction=0.4, hot_set_size=5, cold_set_size=60)
        cluster = run_bounded_cluster(
            workload, ClusterConfig(num_partitions=3, seed=23)
        )
        verified = check_conflict_order(cluster)
        # Every (participant, txn) completion on replica 0 is verified.
        total_completions = sum(
            cluster.node(0, p).scheduler.completed for p in range(3)
        )
        assert verified == total_completions

    def test_requires_history(self):
        from repro import CalvinCluster, check_conflict_order
        from repro.errors import ConsistencyError

        workload = Microbenchmark(hot_set_size=5, cold_set_size=60)
        cluster = CalvinCluster(
            ClusterConfig(num_partitions=1, seed=1),
            workload=workload, record_history=False,
        )
        with pytest.raises(ConsistencyError):
            check_conflict_order(cluster)

    def test_detects_injected_violation(self):
        from repro import check_conflict_order
        from repro.errors import ConsistencyError

        workload = Microbenchmark(mp_fraction=0.0, hot_set_size=2, cold_set_size=60)
        cluster = run_bounded_cluster(
            workload, ClusterConfig(num_partitions=1, seed=2),
            clients_per_partition=4, max_txns=10,
        )
        trace = cluster.node(0, 0).scheduler.execution_trace
        # Corrupt the trace: swap two conflicting completions (every txn
        # touches a hot key from a 2-element set, so swaps conflict).
        trace[0], trace[-1] = trace[-1], trace[0]
        with pytest.raises(ConsistencyError):
            check_conflict_order(cluster)
