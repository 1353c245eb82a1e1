"""Faults during live migration: the move must survive node crashes.

A migration is ordinary sequenced input, so the existing fault-recovery
machinery (Paxos retransmit, sequencer resend, retained served reads)
must carry it through a crash with no special cases: after restart and
resync every invariant checker still holds and the replicas converge on
the same post-migration state.
"""

from __future__ import annotations

import pytest

from repro import (
    CalvinCluster,
    ClientProfile,
    ClusterAdmin,
    ClusterConfig,
    Microbenchmark,
)
from repro.core.checkers import verify


def _replicated_cluster(seed=2012):
    config = ClusterConfig(
        num_partitions=4,
        num_replicas=2,
        replication_mode="paxos",
        seed=seed,
        active_partitions=2,
    )
    cluster = CalvinCluster(
        config,
        workload=Microbenchmark(mp_fraction=0.3, hot_set_size=10, cold_set_size=100),
    )
    cluster.load_workload_data()
    return cluster


def _run_with_crash(crashed_partition, seed=2012):
    """Split p0 onto the spare p2 and crash one replica-1 node mid-copy."""
    cluster = _replicated_cluster(seed=seed)
    admin = ClusterAdmin(cluster)
    cluster.add_clients(ClientProfile(per_partition=4, max_txns=15))
    plan = admin.split(0, 0.5)
    epoch = cluster.config.epoch_duration
    crash_at = (plan.flip_epoch + 0.5) * epoch  # mid-copy
    sim = cluster.sim
    sim.schedule_at(crash_at, cluster.crash_node, 1, crashed_partition)
    sim.schedule_at(crash_at + 8 * epoch, cluster.restart_node, 1, crashed_partition)
    cluster.run(duration=0.6)
    cluster.quiesce()
    return cluster, plan


@pytest.mark.parametrize("crashed", [0, 2], ids=["source", "dest"])
def test_crash_mid_migration_invariants_hold(crashed):
    cluster, plan = _run_with_crash(crashed)
    verify(cluster)
    # The migration itself completed despite the crash.
    for replica in range(2):
        dest_store = cluster.node(replica, plan.dest).store
        source_store = cluster.node(replica, plan.source).store
        for key in plan.keys:
            assert key in dest_store
            assert key not in source_store


def test_crashed_run_matches_log_replay():
    cluster, _ = _run_with_crash(0)
    replayed = CalvinCluster.replay(
        cluster.config,
        cluster.registry,
        cluster.catalog.partitioner,
        cluster.initial_data,
        cluster.merged_log(),
    )
    assert replayed.final_state() == cluster.final_state()
