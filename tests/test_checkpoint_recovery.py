"""Integration tests: checkpointing modes and recovery on live clusters.

Capture and recovery run on both engines that checkpoint: ``core`` and
``star``. A star cluster recovers through ``CalvinCluster.replay`` (the
core engine) on the same agreed order.
"""

import pytest

from repro import (
    CalvinCluster,
    ClientProfile,
    ClusterConfig,
    ConfigError,
    Microbenchmark,
    build_cluster,
)
from repro.errors import RecoveryError

# (engine, mode); core keeps the bare mode as its id.
ENGINE_MODES = [
    pytest.param("core", "naive", id="naive"),
    pytest.param("core", "zigzag", id="zigzag"),
    pytest.param("star", "naive", id="star-naive"),
    pytest.param("star", "zigzag", id="star-zigzag"),
]


def run_with_checkpoint(mode, seed=17, partitions=2, max_txns=50, engine="core"):
    workload = Microbenchmark(mp_fraction=0.2, hot_set_size=20, cold_set_size=300)
    config = ClusterConfig(num_partitions=partitions, seed=seed, engine=engine)
    cluster = build_cluster(config, workload=workload, record_history=False)
    cluster.load_workload_data()
    cluster.add_clients(ClientProfile(per_partition=8, max_txns=max_txns))
    done = cluster.schedule_checkpoint(at_time=0.12, mode=mode)
    cluster.run(duration=0.6)
    cluster.quiesce()
    assert done.triggered, f"{mode} checkpoint did not finish"
    return cluster


class TestCheckpointCapture:
    @pytest.mark.parametrize("engine, mode", ENGINE_MODES)
    def test_snapshot_per_partition(self, engine, mode):
        cluster = run_with_checkpoint(mode, engine=engine)
        assert sorted(cluster.checkpoints) == [0, 1]
        for partition, snapshot in cluster.checkpoints.items():
            assert snapshot.partition == partition
            assert snapshot.mode == mode
            assert snapshot.record_count > 0

    @pytest.mark.parametrize("engine, mode", ENGINE_MODES)
    def test_epoch_watermark_aligned(self, engine, mode):
        cluster = run_with_checkpoint(mode, engine=engine)
        epochs = {s.epoch for s in cluster.checkpoints.values()}
        assert len(epochs) == 1  # consistent cut across partitions

    def test_invalid_mode_rejected(self):
        workload = Microbenchmark()
        cluster = CalvinCluster(ClusterConfig(num_partitions=1), workload=workload)
        with pytest.raises(ConfigError):
            cluster.schedule_checkpoint(0.1, mode="bogus")

    @pytest.mark.parametrize("engine, mode", ENGINE_MODES)
    def test_checkpoint_of_an_idle_cluster_finishes(self, engine, mode):
        # Every client is done long before t=0.12: the schedulers reach
        # the checkpoint barrier on empty epochs, with nothing running.
        cluster = run_with_checkpoint(mode, max_txns=2, engine=engine)
        assert sorted(cluster.checkpoints) == [0, 1]

    def test_zigzag_does_not_pause_long(self):
        # During a zigzag checkpoint transactions keep committing.
        for engine in ("core", "star"):
            cluster = run_with_checkpoint("zigzag", max_txns=80, engine=engine)
            series = cluster.metrics.throughput.series(0.5, 0.05)
            zero_buckets = sum(1 for _t, rate in series if rate == 0)
            assert zero_buckets <= 1, engine


class TestRecovery:
    @pytest.mark.parametrize("engine, mode", ENGINE_MODES)
    def test_checkpoint_plus_suffix_equals_live(self, engine, mode):
        cluster = run_with_checkpoint(mode, engine=engine)
        epoch = cluster.checkpoints[0].epoch
        image = {}
        for snapshot in cluster.checkpoints.values():
            image.update(snapshot.data)
        suffix = [e for e in cluster.merged_log() if e.epoch >= epoch]
        recovered = CalvinCluster.replay(
            cluster.config, cluster.registry, cluster.catalog.partitioner,
            image, suffix, start_epoch=epoch,
        )
        assert recovered.final_state() == cluster.final_state()

    def test_log_truncation_after_checkpoint(self):
        cluster = run_with_checkpoint("zigzag")
        epoch = cluster.checkpoints[0].epoch
        node = cluster.node(0, 0)
        before = len(node.input_log)
        dropped = node.input_log.truncate_before(epoch)
        assert dropped > 0
        assert len(node.input_log) == before - dropped
        assert all(entry.epoch >= epoch for entry in node.input_log)

    def test_replay_rejects_pre_checkpoint_entries(self):
        cluster = run_with_checkpoint("zigzag")
        epoch = cluster.checkpoints[0].epoch
        assert epoch > 0
        with pytest.raises(RecoveryError):
            CalvinCluster.replay(
                cluster.config, cluster.registry, cluster.catalog.partitioner,
                {}, cluster.merged_log(), start_epoch=epoch,
            )
