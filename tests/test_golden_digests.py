"""Golden trace digests: the determinism oracle for hot-path work.

Every performance change to the kernel, lock manager, network or
scheduler must leave these digests bit-identical — the span trace
captures the exact (time, order, phase) interleaving of every
transaction, so any reordering, dropped hop, or timing drift shows up
as a digest change even when throughput numbers look fine.

If a digest changes, the change is NOT a safe optimisation: it altered
the simulated execution. Either fix the regression or — only for an
intentional semantic change — re-record the constants below in the same
commit and say why in its message.
"""

from __future__ import annotations

from repro import CalvinCluster, ClientProfile, ClusterConfig, Microbenchmark
from repro.baseline.cluster import BaselineCluster
from repro.obs import TraceRecorder

GOLDEN_CALVIN = (
    "284f69ede6994d07dfb18e418ddacf32ce5bdc6bea6fc69ee1aa17e2b2b60251",
    1574,  # events executed
    80,    # committed
)
GOLDEN_BASELINE = (
    "8d3d25424f130d6f42125f7c022827e019aa2f1be2c2cb3d9d5dab38dc2dcc85",
    2291,
    35,
)
GOLDEN_CHAOS = (
    "3f5f2fd1e4b967143c5f3544bc9595209a5c1112bddfa6578732573ab260e4ab",
    6258,
    80,
)
GOLDEN_STAR = (
    "4986368713583767410ce43bd1b9643fc0b52a914a83b48afabb34b14c19bd5b",
    1517,
    80,   # same commit count as GOLDEN_CALVIN: same schedule, same effects
)
GOLDEN_GEO = (
    "7536cd7faa29539d178f545f07e5f20f66d944f46f8d3e379f35902a3007f7dc",
    7856,
    80,   # same commit count again: geo transport moves time, not effects
)


def _workload():
    return Microbenchmark(mp_fraction=0.3, hot_set_size=10, cold_set_size=100)


def _run_calvin(seed, replicas=1, fault_profile=None, duration=0.3,
                idle_admin=False):
    tracer = TraceRecorder()
    config = ClusterConfig(
        num_partitions=2,
        num_replicas=replicas,
        replication_mode="paxos" if replicas > 1 else "none",
        seed=seed,
        fault_profile=fault_profile,
        fault_horizon=duration * 0.85,
    )
    cluster = CalvinCluster(config, workload=_workload(), tracer=tracer)
    if idle_admin:
        from repro import ClusterAdmin

        ClusterAdmin(cluster)
    cluster.load_workload_data()
    cluster.add_clients(ClientProfile(per_partition=4, max_txns=10))
    cluster.run(duration=duration)
    cluster.quiesce()
    return tracer.digest(), cluster.sim.events_executed, cluster.metrics.committed


def test_golden_calvin_digest():
    assert _run_calvin(seed=2012) == GOLDEN_CALVIN


def test_golden_baseline_digest():
    tracer = TraceRecorder()
    config = ClusterConfig(num_partitions=2, seed=2012)
    cluster = BaselineCluster(config, workload=_workload(), tracer=tracer)
    cluster.load_workload_data()
    cluster.add_clients(ClientProfile(per_partition=4, max_txns=10))
    cluster.run(duration=0.3)
    cluster.quiesce()
    observed = (tracer.digest(), cluster.sim.events_executed, cluster.metrics.committed)
    assert observed == GOLDEN_BASELINE


def test_golden_star_digest():
    # The STAR engine on the same workload/seed as GOLDEN_CALVIN: phase
    # switching changes the interleaving (its own digest) but must not
    # change what commits.
    from repro.engines import build_cluster

    tracer = TraceRecorder()
    config = ClusterConfig(num_partitions=2, num_replicas=1, seed=2012,
                           engine="star")
    cluster = build_cluster(config, workload=_workload(), tracer=tracer)
    cluster.load_workload_data()
    cluster.add_clients(ClientProfile(per_partition=4, max_txns=10))
    cluster.run(duration=0.3)
    cluster.quiesce()
    observed = (tracer.digest(), cluster.sim.events_executed, cluster.metrics.committed)
    assert observed == GOLDEN_STAR


def test_golden_geo_digest():
    # Geo ring with partial replication: the digest additionally covers
    # multi-hop routing, per-link bandwidth sharing, HOP spans, the
    # hosting-aware Paxos groups and deferred writeset shipping.
    from repro.core import checkers

    tracer = TraceRecorder()
    config = ClusterConfig(
        num_partitions=2,
        num_replicas=3,
        replication_mode="paxos",
        topology="ring",
        partial_hosting=((0, 1), (0,), (1,)),
        seed=2012,
    )
    cluster = CalvinCluster(config, workload=_workload(), tracer=tracer)
    cluster.load_workload_data()
    cluster.add_clients(ClientProfile(per_partition=4, max_txns=10))
    cluster.run(duration=0.6)
    cluster.quiesce()
    checkers.check_replica_consistency(cluster)
    observed = (tracer.digest(), cluster.sim.events_executed, cluster.metrics.committed)
    assert observed == GOLDEN_GEO


def test_golden_chaos_digest():
    # Replicated cluster under the chaos-mix fault profile: the digest
    # also covers Paxos, fault injection and recovery scheduling.
    observed = _run_calvin(
        seed=7, replicas=2, fault_profile="chaos-mix", duration=0.5
    )
    assert observed == GOLDEN_CHAOS


def test_golden_digests_unchanged_with_idle_control_plane():
    # The elastic control plane must be pay-for-what-you-use: a cluster
    # with a ClusterAdmin attached but no reconfiguration performed
    # reproduces the golden rows bit-for-bit (same digest, same event
    # count, same commits) — both unreplicated and under chaos. The
    # other three rows (baseline, star, geo) cannot host an admin at
    # all, so their tests above already pin the idle behaviour.
    assert _run_calvin(seed=2012, idle_admin=True) == GOLDEN_CALVIN
    assert _run_calvin(
        seed=7, replicas=2, fault_profile="chaos-mix", duration=0.5,
        idle_admin=True,
    ) == GOLDEN_CHAOS
