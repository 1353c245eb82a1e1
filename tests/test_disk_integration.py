"""Integration tests for the disk-based storage path (Section 4)."""

from repro import CalvinCluster, ClientProfile, ClusterConfig, Microbenchmark, check_serializability


def disk_cluster(archive_fraction=1.0, estimate_error=0.0, seed=5):
    workload = Microbenchmark(
        mp_fraction=0.0,
        hot_set_size=10,
        cold_set_size=100,
        archive_fraction=archive_fraction,
        archive_set_size=500,
    )
    config = ClusterConfig(
        num_partitions=1,
        seed=seed,
        disk_enabled=True,
        disk_estimate_error=estimate_error,
    )
    cluster = CalvinCluster(config, workload=workload)
    cluster.load_workload_data()
    return cluster


class TestPrefetchPath:
    def test_disk_txns_commit_correctly(self):
        cluster = disk_cluster()
        cluster.add_clients(ClientProfile(per_partition=4, max_txns=10))
        cluster.run(duration=0.3)
        cluster.quiesce()
        assert check_serializability(cluster) == 40
        assert cluster.metrics.committed == 40

    def test_sequencer_defers_and_prefetches(self):
        cluster = disk_cluster()
        cluster.add_clients(ClientProfile(per_partition=4, max_txns=10))
        cluster.run(duration=0.3)
        cluster.quiesce()
        node = cluster.node(0, 0)
        assert node.sequencer.txns_deferred == 40  # every txn hits the archive
        assert node.engine.prefetches > 0
        assert node.engine.disk.fetches > 0

    def test_fetched_keys_become_warm(self):
        cluster = disk_cluster()
        cluster.add_clients(ClientProfile(per_partition=2, max_txns=5))
        cluster.run(duration=0.3)
        cluster.quiesce()
        assert len(cluster.node(0, 0).engine.warm) > 0

    def test_deferral_adds_latency(self):
        fast = disk_cluster(archive_fraction=0.0)
        fast.add_clients(ClientProfile(per_partition=2, max_txns=10))
        fast.run(duration=0.5)
        fast.quiesce()
        slow = disk_cluster(archive_fraction=1.0)
        slow.add_clients(ClientProfile(per_partition=2, max_txns=10))
        slow.run(duration=0.5)
        slow.quiesce()
        assert slow.metrics.latency.mean > fast.metrics.latency.mean + 0.005

    def test_underestimate_stalls_but_stays_correct(self):
        cluster = disk_cluster(estimate_error=1.0)
        cluster.add_clients(ClientProfile(per_partition=4, max_txns=10))
        cluster.run(duration=0.4)
        cluster.quiesce()
        assert check_serializability(cluster) == 40

    def test_memory_only_config_never_touches_disk(self):
        workload = Microbenchmark(hot_set_size=10, cold_set_size=100)
        cluster = CalvinCluster(
            ClusterConfig(num_partitions=1, seed=1), workload=workload
        )
        cluster.load_workload_data()
        cluster.add_clients(ClientProfile(per_partition=2, max_txns=5))
        cluster.run(duration=0.2)
        cluster.quiesce()
        node = cluster.node(0, 0)
        assert node.engine.disk is None
        assert node.sequencer.txns_deferred == 0
