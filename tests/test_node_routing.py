"""Message routing and component wiring at the node level."""

import pytest

from repro import CalvinCluster, ClusterConfig, Microbenchmark
from repro.errors import NetworkError, StorageError
from repro.net.messages import PrefetchRequest, TxnReply
from repro.txn.result import TransactionResult, TxnStatus


def make_cluster(**kwargs):
    workload = Microbenchmark(
        hot_set_size=5, cold_set_size=50,
        archive_fraction=kwargs.pop("archive_fraction", 0.0),
        archive_set_size=100,
    )
    config = ClusterConfig(num_partitions=1, seed=1, **kwargs)
    cluster = CalvinCluster(config, workload=workload)
    cluster.load_workload_data()
    return cluster


class TestRouting:
    def test_unknown_message_rejected(self):
        cluster = make_cluster()
        with pytest.raises(NetworkError):
            cluster.node(0, 0).handle_message(("x",), object())

    def test_misrouted_reply_rejected(self):
        cluster = make_cluster()
        reply = TxnReply(TransactionResult(1, TxnStatus.COMMITTED))
        with pytest.raises(NetworkError):
            cluster.node(0, 0).handle_message(("x",), reply)

    def test_prefetch_request_warms_keys(self):
        cluster = make_cluster(disk_enabled=True, archive_fraction=0.5)
        node = cluster.node(0, 0)
        key = ("arch", 0, 1)
        assert node.engine.is_cold(key)
        node.handle_message(("x",), PrefetchRequest((key,)))
        cluster.sim.run()
        assert not node.engine.is_cold(key)

    def test_prefetch_of_warm_key_is_noop(self):
        cluster = make_cluster(disk_enabled=True, archive_fraction=0.5)
        node = cluster.node(0, 0)
        key = ("arch", 0, 2)
        node.engine.warm.add(key)
        node.handle_message(("x",), PrefetchRequest((key,)))
        assert node.engine.disk.fetches == 0


class TestCheckpointGuards:
    def test_double_checkpoint_rejected(self):
        cluster = make_cluster()
        node = cluster.node(0, 0)
        node.begin_checkpoint("zigzag", epoch=2)
        with pytest.raises(StorageError):
            node.begin_checkpoint("zigzag", epoch=4)

    def test_unknown_mode_rejected(self):
        cluster = make_cluster()
        with pytest.raises(StorageError):
            cluster.node(0, 0).begin_checkpoint("flash", epoch=2)

    def test_store_alias(self):
        cluster = make_cluster()
        node = cluster.node(0, 0)
        assert node.store is node.engine.store
