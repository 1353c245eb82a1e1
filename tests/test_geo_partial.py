"""Partial replication: hosting maps, shrunk Paxos groups, replica-local reads."""

from __future__ import annotations

import pytest

from repro import CalvinCluster, ClusterConfig, Microbenchmark
from repro.core import checkers
from repro.core.traffic import ClientProfile
from repro.errors import ConfigError
from repro.geo import add_read_clients
from repro.geo.readonly import ReadOnlyClient
from repro.partition.catalog import NodeId
from tests.conftest import run_bounded_cluster

# Replica 0 hosts everything (the system of record); replicas 1 and 2
# each host one partition.
HOSTING = ((0, 1), (0,), (1,))


def _partial_config(**overrides) -> ClusterConfig:
    base = dict(
        num_partitions=2,
        num_replicas=3,
        replication_mode="paxos",
        partial_hosting=HOSTING,
        seed=2012,
    )
    base.update(overrides)
    return ClusterConfig(**base)


def _workload():
    return Microbenchmark(mp_fraction=0.3, hot_set_size=20, cold_set_size=100)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(partial_hosting=((0, 1),)), "one partition tuple per replica"),
            (dict(partial_hosting=((0, 1), (1, 0), (1,))), "sorted and unique"),
            (dict(partial_hosting=((0, 1), (0, 0), (1,))), "sorted and unique"),
            (dict(partial_hosting=((0, 1), (5,), (1,))), "unknown partition 5"),
            (dict(partial_hosting=((0, 1), (), (1,))), "hosts no partitions"),
            (
                dict(partial_hosting=((0,), (0,), (1,))),
                "replica 0 must host every partition",
            ),
            (dict(engine="star"), "star engine does not support partial hosting"),
        ],
    )
    def test_invalid_hosting_rejected(self, overrides, message):
        with pytest.raises(ConfigError, match=message):
            _partial_config(**overrides).validate()

    def test_hosting_rejects_fault_injection(self):
        with pytest.raises(ConfigError, match="fault injection"):
            _partial_config(fault_profile="chaos-mix").validate()

    def test_hosting_needs_multiple_replicas(self):
        with pytest.raises(ConfigError, match="num_replicas >= 2"):
            ClusterConfig(
                num_partitions=2, num_replicas=1, partial_hosting=((0, 1),)
            ).validate()


class TestCatalogLayout:
    def test_sparse_layout(self):
        cluster = CalvinCluster(_partial_config(), workload=_workload())
        catalog = cluster.catalog
        assert catalog.partial
        assert tuple(catalog.hosted_partitions(0)) == (0, 1)
        assert tuple(catalog.hosted_partitions(1)) == (0,)
        assert tuple(catalog.hosted_partitions(2)) == (1,)
        assert catalog.is_hosted(1, 0) and not catalog.is_hosted(1, 1)
        # Unhosted nodes are never built.
        assert set(cluster.nodes) == {
            NodeId(0, 0),
            NodeId(0, 1),
            NodeId(1, 0),
            NodeId(2, 1),
        }

    def test_full_replication_is_dense(self):
        config = ClusterConfig(
            num_partitions=2, num_replicas=2, replication_mode="paxos"
        )
        cluster = CalvinCluster(config, workload=_workload())
        assert not cluster.catalog.partial
        assert len(cluster.nodes) == 4
        assert cluster.catalog.writeset_targets(0, {0, 1}) == ()

    def test_writeset_targets_cover_straddled_hosts(self):
        catalog = CalvinCluster(_partial_config(), workload=_workload()).catalog
        # Replica 1 hosts partition 0 but not partition 1: a {0, 1}
        # transaction must ship it a writeset for partition 0.
        assert catalog.writeset_targets(0, {0, 1}) == (1,)
        assert catalog.writeset_targets(1, {0, 1}) == (2,)
        # Single-partition transactions re-execute everywhere they land.
        assert catalog.writeset_targets(0, {0}) == ()
        assert catalog.writeset_targets(1, {1}) == ()

    def test_paxos_groups_shrink_to_hosting_replicas(self):
        cluster = CalvinCluster(_partial_config(), workload=_workload())
        group_of = lambda node_id: (
            cluster.nodes[node_id].sequencer.replication.participant.group
        )
        assert group_of(NodeId(0, 0)) == [0, 1]
        assert group_of(NodeId(0, 1)) == [0, 2]


class TestPartialReplicationEndToEnd:
    def test_partial_cluster_converges_and_stays_consistent(self):
        cluster = run_bounded_cluster(
            _workload(), _partial_config(), clients_per_partition=4, max_txns=8
        )
        assert cluster.metrics.committed > 0
        checkers.check_replica_consistency(cluster)
        checkers.check_no_double_apply(cluster)
        checkers.check_epoch_contiguity(cluster)
        checkers.check_serializability(cluster)

    def test_partial_cluster_is_deterministic(self):
        def fingerprints():
            cluster = run_bounded_cluster(
                _workload(), _partial_config(), clients_per_partition=4, max_txns=8
            )
            return cluster.final_state(), cluster.metrics.committed

        assert fingerprints() == fingerprints()

    def test_partial_over_geo_topology(self):
        config = _partial_config(topology="ring", wan_latency=0.01)
        cluster = CalvinCluster(config, workload=_workload())
        cluster.load_workload_data()
        cluster.add_clients(ClientProfile(per_partition=4, max_txns=8))
        cluster.run(duration=0.4)
        cluster.quiesce()
        assert cluster.metrics.committed > 0
        assert cluster.network.wan_messages > 0
        checkers.check_replica_consistency(cluster)


def _ro_cluster(replica_local: bool, max_txns: int = 5):
    config = ClusterConfig(
        num_partitions=2,
        num_replicas=3,
        replication_mode="paxos",
        topology="ring",
        wan_latency=0.01,
        seed=2012,
    )
    cluster = CalvinCluster(config, workload=_workload())
    cluster.load_workload_data()
    cluster.add_clients(ClientProfile(per_partition=2, max_txns=5))
    readers = add_read_clients(
        cluster, 6, max_txns=max_txns, replica_local=replica_local
    )
    cluster.run(duration=0.5)
    cluster.quiesce()
    return cluster, readers


class TestReplicaLocalReads:
    def test_read_only_clients_complete_off_the_write_path(self):
        cluster, readers = _ro_cluster(replica_local=True)
        assert all(reader.completed == reader.max_txns for reader in readers)
        # Spread clients hit their own replica, not the input site.
        assert sum(reader.local_replica_hits for reader in readers) > 0
        staleness = cluster.metrics_registry.histogram("geo.ro.staleness_epochs")
        latency = cluster.metrics_registry.histogram("geo.ro.latency_ms")
        assert staleness.count == sum(reader.completed for reader in readers)
        assert latency.count == staleness.count
        # A local read never pays a WAN round trip (10 ms one way).
        assert latency.percentile(50) < 10.0

    def test_replica_local_false_forces_the_input_site(self):
        _, readers = _ro_cluster(replica_local=False)
        assert all(reader.completed == reader.max_txns for reader in readers)
        assert sum(reader.local_replica_hits for reader in readers) == 0

    def test_reads_are_deterministic(self):
        def staleness_snapshot():
            cluster, readers = _ro_cluster(replica_local=True)
            hist = cluster.metrics_registry.histogram("geo.ro.staleness_epochs")
            return (
                hist.count,
                hist.percentile(50),
                tuple(reader.local_replica_hits for reader in readers),
            )

        assert staleness_snapshot() == staleness_snapshot()

    def test_partial_hosting_restricts_serving_replicas(self):
        config = _partial_config(topology="ring", wan_latency=0.01)
        cluster = CalvinCluster(config, workload=_workload())
        cluster.load_workload_data()
        readers = add_read_clients(cluster, 3, max_txns=3)
        # Replica 1 hosts only partition 0: a query touching partition 1
        # can never be served there, whatever the client's datacenter.
        client = readers[1]
        assert client.datacenter == 1
        assert cluster.catalog.is_hosted(1, 0)
        chosen = client._choose_replica([0])
        assert cluster.catalog.is_hosted(chosen, 0)
        assert client._choose_replica([0, 1]) == 0  # only replica 0 has both
        cluster.run(duration=0.4)
        cluster.quiesce()
        assert all(reader.completed == 3 for reader in readers)

    def test_read_client_rejects_bad_shapes(self):
        cluster = CalvinCluster(_partial_config(), workload=_workload())
        with pytest.raises(ConfigError, match="partitions_per_query"):
            ReadOnlyClient(cluster, 0, partitions_per_query=0)
        with pytest.raises(ConfigError, match="cover every queried partition"):
            ReadOnlyClient(cluster, 0, keys_per_query=1, partitions_per_query=2)
