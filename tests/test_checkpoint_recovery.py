"""Integration tests: checkpointing modes and recovery on live clusters."""

import pytest

from repro import CalvinCluster, ClientProfile, ClusterConfig, ConfigError, Microbenchmark
from repro.errors import RecoveryError


def run_with_checkpoint(mode, seed=17, partitions=2, max_txns=50):
    workload = Microbenchmark(mp_fraction=0.2, hot_set_size=20, cold_set_size=300)
    config = ClusterConfig(num_partitions=partitions, seed=seed)
    cluster = CalvinCluster(config, workload=workload, record_history=False)
    cluster.load_workload_data()
    cluster.add_clients(ClientProfile(per_partition=8, max_txns=max_txns))
    done = cluster.schedule_checkpoint(at_time=0.12, mode=mode)
    cluster.run(duration=0.6)
    cluster.quiesce()
    assert done.triggered, f"{mode} checkpoint did not finish"
    return cluster


class TestCheckpointCapture:
    @pytest.mark.parametrize("mode", ["naive", "zigzag"])
    def test_snapshot_per_partition(self, mode):
        cluster = run_with_checkpoint(mode)
        assert sorted(cluster.checkpoints) == [0, 1]
        for partition, snapshot in cluster.checkpoints.items():
            assert snapshot.partition == partition
            assert snapshot.mode == mode
            assert snapshot.record_count > 0

    @pytest.mark.parametrize("mode", ["naive", "zigzag"])
    def test_epoch_watermark_aligned(self, mode):
        cluster = run_with_checkpoint(mode)
        epochs = {s.epoch for s in cluster.checkpoints.values()}
        assert len(epochs) == 1  # consistent cut across partitions

    def test_invalid_mode_rejected(self):
        workload = Microbenchmark()
        cluster = CalvinCluster(ClusterConfig(num_partitions=1), workload=workload)
        with pytest.raises(ConfigError):
            cluster.schedule_checkpoint(0.1, mode="bogus")

    def test_zigzag_does_not_pause_long(self):
        # During a zigzag checkpoint transactions keep committing.
        cluster = run_with_checkpoint("zigzag", max_txns=80)
        series = cluster.metrics.throughput.series(0.5, 0.05)
        zero_buckets = sum(1 for _t, rate in series if rate == 0)
        assert zero_buckets <= 1


class TestRecovery:
    @pytest.mark.parametrize("mode", ["naive", "zigzag"])
    def test_checkpoint_plus_suffix_equals_live(self, mode):
        cluster = run_with_checkpoint(mode)
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
