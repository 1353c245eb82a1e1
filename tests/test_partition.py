"""Unit tests for partitioning and the cluster catalog."""

import pytest

from repro.config import ClusterConfig
from repro.errors import ConfigError
from repro.partition import (
    Catalog,
    FuncPartitioner,
    HashPartitioner,
    KeyFieldPartitioner,
    NodeId,
    Partitioner,
    client_address,
    node_address,
    stable_hash,
)
from repro.workloads.microbenchmark import Microbenchmark
from repro.workloads.tpcc import keys as tpcc_keys
from repro.workloads.tpcc.loader import TpccScale
from repro.workloads.tpcc.workload import TpccWorkload
from repro.workloads.ycsb import YcsbWorkload


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash(("stock", 3, 7)) == stable_hash(("stock", 3, 7))

    def test_spreads_values(self):
        buckets = {stable_hash(("k", i)) % 8 for i in range(100)}
        assert len(buckets) == 8


class _ByIndex(Partitioner):
    """A partitioner defining only ``partition_of``: the base class's
    ``owners_of`` serves it."""

    def partition_of(self, key):
        return key[1] % self.num_partitions


class TestPartitioners:
    def test_hash_in_range(self):
        partitioner = HashPartitioner(4)
        for i in range(50):
            assert 0 <= partitioner.partition_of(("key", i)) < 4

    def test_hash_roughly_uniform(self):
        partitioner = HashPartitioner(4)
        counts = [0] * 4
        for i in range(4000):
            counts[partitioner.partition_of(("key", i))] += 1
        assert min(counts) > 700

    def test_func_partitioner_modulo(self):
        partitioner = FuncPartitioner(4, lambda key: key[1])
        assert partitioner.partition_of(("x", 6)) == 2
        assert partitioner.partition_of(("x", 1)) == 1

    def test_invalid_count(self):
        with pytest.raises(ConfigError):
            HashPartitioner(0)

    def test_key_field_owner_table(self):
        partitioner = KeyFieldPartitioner(2, [0, 0, 1, 1])
        assert partitioner.partition_of(("x", 3)) == 1
        assert partitioner.owners_of([("x", 0), ("y", 2, 9), ("z", 1)]) == [0, 1, 0]
        with pytest.raises(ConfigError):
            KeyFieldPartitioner(2, [0, 2])

    @pytest.mark.parametrize("make", [
        lambda: _ByIndex(3),
        lambda: HashPartitioner(3),
        lambda: KeyFieldPartitioner(3, range(3)),
        lambda: FuncPartitioner(3, lambda key: key[1]),
    ], ids=["base", "hash", "key-field", "func"])
    def test_owners_of_is_partition_of_per_key(self, make):
        partitioner = make()
        keys = [("k", i % 3, i) for i in range(30)]
        partitioner.warm(keys[:10])                         # memoised and not alike
        expected = [partitioner.partition_of(key) for key in keys]
        assert partitioner.owners_of(keys) == expected
        assert partitioner.owners_of(iter(keys)) == expected


def _old_owner(workload, partitions):
    """The owner function each workload partitioned by before its keys
    were routed through an owner table."""
    if isinstance(workload, TpccWorkload):
        per = workload.scale.warehouses_per_partition
        return lambda key: (key[1] // per) % partitions
    return lambda key: key[1] % partitions


class TestKeyFieldRouting:
    """Every key a workload creates is owned where the per-key function
    it replaced put it."""

    @pytest.mark.parametrize("partitions", [1, 2, 3])
    @pytest.mark.parametrize("workload", [
        Microbenchmark(hot_set_size=5, cold_set_size=12, archive_set_size=7,
                       archive_fraction=0.5),
        YcsbWorkload(records_per_partition=40),
        TpccWorkload(scale=TpccScale(warehouses_per_partition=3, districts_per_warehouse=2,
                                     customers_per_district=4, items=6)),
    ], ids=["micro", "ycsb", "tpcc"])
    def test_loaded_keys(self, workload, partitions):
        partitioner = workload.build_partitioner(partitions)
        catalog = Catalog(ClusterConfig(num_partitions=partitions), partitioner)
        keys = list(workload.initial_data(catalog))
        old = _old_owner(workload, partitions)
        assert partitioner.owners_of(keys) == list(map(old, keys))
        assert [partitioner.partition_of(key) for key in keys] == list(map(old, keys))

    @pytest.mark.parametrize("partitions", [1, 2, 4])
    def test_tpcc_rows_created_after_load(self, partitions):
        workload = TpccWorkload(scale=TpccScale(warehouses_per_partition=3))
        partitioner = workload.build_partitioner(partitions)
        old = _old_owner(workload, partitions)
        created = []
        for w in range(workload.scale.total_warehouses(partitions)):
            created += [
                tpcc_keys.order(w, 9, 17),
                tpcc_keys.order_line(w, 9, 17, 14),
                tpcc_keys.customer_last_order(w, 9, 99),
                tpcc_keys.item(w, -1),                       # the invalid item
                tpcc_keys.stock(w, -1),
            ]
        assert partitioner.owners_of(created) == list(map(old, created))


class TestCatalog:
    def make(self, partitions=3, replicas=2):
        config = ClusterConfig(
            num_partitions=partitions,
            num_replicas=replicas,
            replication_mode="async" if replicas > 1 else "none",
        )
        return Catalog(config, HashPartitioner(partitions))

    def test_partition_count_must_match(self):
        config = ClusterConfig(num_partitions=3)
        with pytest.raises(ConfigError):
            Catalog(config, HashPartitioner(2))

    def test_nodes_enumeration(self):
        catalog = self.make(partitions=2, replicas=2)
        nodes = list(catalog.nodes())
        assert len(nodes) == 4
        assert nodes[0] == NodeId(0, 0)
        assert nodes[-1] == NodeId(1, 1)

    def test_nodes_of_replica(self):
        catalog = self.make()
        assert [n.partition for n in catalog.nodes_of_replica(1)] == [0, 1, 2]
        assert all(n.replica == 1 for n in catalog.nodes_of_replica(1))

    def test_replicas_of_partition(self):
        catalog = self.make()
        group = catalog.replicas_of_partition(2)
        assert [n.replica for n in group] == [0, 1]
        assert all(n.partition == 2 for n in group)

    def test_partitions_of_keys(self):
        catalog = self.make()
        keys = [("k", i) for i in range(40)]
        partitions = catalog.partitions_of(keys)
        assert partitions <= {0, 1, 2}
        assert len(partitions) > 1

    def test_owner_lookup_is_one_pass_and_memoised(self):
        # The hash partitioner is the one that memoises: its lookup is a
        # CRC32 over a repr. Counted here through its one computing hook.
        calls = []

        class CountingHash(HashPartitioner):
            def _hash_owner(self, key):
                calls.append(key)
                return key[1] % self.num_partitions

        partitioner = CountingHash(3)
        catalog = Catalog(ClusterConfig(num_partitions=3), partitioner)
        keys = [("k", i) for i in range(6)]
        partitioner.warm(keys[:1])                          # one key known ahead
        partitioner.warm(keys)                              # what a load announces
        assert calls == keys                                # each computed once
        # Hit, miss and mixed inputs alike; a generator is walked once.
        late = [("late", i) for i in range(3)]
        assert catalog.partitions_of(key for key in keys + late) == {0, 1, 2}
        assert [catalog.partition_of(key) for key in keys] == [0, 1, 2, 0, 1, 2]
        assert [catalog.partition_of(key) for key in late] == [0, 1, 2]
        # An announced key is never computed again; a late one is
        # computed each time it is asked about and never kept.
        assert calls == keys + late + late
        assert len(partitioner._memo) == len(keys)


class TestAddresses:
    def test_node_address(self):
        assert node_address(NodeId(1, 2)) == ("node", 1, 2)

    def test_client_address(self):
        assert client_address(0, 7) == ("client", 0, 7)


class TestClusterConfig:
    def test_defaults_valid(self):
        ClusterConfig().validate()

    def test_replicas_need_replication(self):
        with pytest.raises(ConfigError):
            ClusterConfig(num_replicas=2).validate()

    def test_paxos_needs_two_replicas(self):
        with pytest.raises(ConfigError):
            ClusterConfig(replication_mode="paxos").validate()

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            ClusterConfig(replication_mode="gossip").validate()

    def test_with_changes_validates(self):
        config = ClusterConfig()
        with pytest.raises(ConfigError):
            config.with_changes(num_partitions=0)

    def test_with_changes_copies(self):
        config = ClusterConfig()
        changed = config.with_changes(num_partitions=7)
        assert changed.num_partitions == 7
        assert config.num_partitions != 7

    def test_num_nodes(self):
        config = ClusterConfig(num_partitions=3, num_replicas=2, replication_mode="async")
        assert config.num_nodes == 6

    def test_cost_model_validation(self):
        from repro.config import CostModel

        with pytest.raises(ConfigError):
            ClusterConfig(costs=CostModel(read_cpu=-1)).validate()
