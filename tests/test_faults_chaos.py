"""Property-based chaos tests: randomized fault plans, invariants green.

The property: for any survivable fault plan (drawn by
:func:`repro.faults.random_plan` or named in ``FAULT_PROFILES``) and any
seed, a bounded run must (a) quiesce, (b) satisfy every correctness
invariant — serializability, conflict order, replica consistency, epoch
contiguity, no double-apply, no lost commits — and (c) be bit-for-bit
reproducible: the same seed yields the same fault trace digest and the
same replica store fingerprints.

A fast smoke subset runs by default; the wider seeded sweeps carry the
``chaos`` marker (``pytest -m chaos``).
"""

import random

import pytest

from repro import CalvinCluster, ClientProfile, ClusterConfig, Microbenchmark
from repro.core.checkers import CHECKS, verify
from repro.faults import random_plan

# (config kwargs, label) — the shapes the sweep exercises. Replicated
# shapes unlock crash/partition draws in random_plan.
SHAPES = [
    ({"num_partitions": 2, "num_replicas": 1, "replication_mode": "none"}, "1r-none"),
    ({"num_partitions": 2, "num_replicas": 2, "replication_mode": "async"}, "2r-async"),
    ({"num_partitions": 2, "num_replicas": 2, "replication_mode": "paxos"}, "2r-paxos"),
    (
        {"num_partitions": 2, "num_replicas": 1, "replication_mode": "none",
         "disk_enabled": True},
        "1r-disk",
    ),
]


def build_workload(disk: bool = False):
    kwargs = dict(mp_fraction=0.3, hot_set_size=10, cold_set_size=100)
    if disk:
        kwargs.update(archive_fraction=0.3, archive_set_size=200)
    return Microbenchmark(**kwargs)


def run_chaos(config_kwargs, seed, plan_seed=None, duration=0.7, monitor=None):
    """One seeded chaos run; returns the quiesced cluster."""
    config = ClusterConfig(seed=seed, **config_kwargs)
    plan = random_plan(
        random.Random(seed * 101 if plan_seed is None else plan_seed),
        config,
        duration=duration * 0.7,
    )
    cluster = CalvinCluster(
        config,
        workload=build_workload(config.disk_enabled),
        fault_plan=plan,
        monitor_interval=monitor,
    )
    cluster.load_workload_data()
    cluster.add_clients(ClientProfile(per_partition=3, max_txns=12))
    cluster.run(duration=duration)
    cluster.quiesce()
    return cluster


def assert_invariants(cluster):
    """Every checker the cluster can answer passes; returns their counts."""
    verified = verify(cluster)
    assert cluster.metrics.committed > 0
    return verified


class TestChaosSmoke:
    """Fast default subset: one run per shape plus the acceptance scenario."""

    def test_acceptance_chaos_mix_invariants_and_determinism(self):
        """The issue's acceptance run: crash + partition + disk + flaky
        links on a 2-replica paxos cluster, live monitor on, invariants
        green, and a same-seed rerun is bit-identical."""

        def run():
            config = ClusterConfig(
                num_partitions=2,
                num_replicas=2,
                replication_mode="paxos",
                seed=2012,
                fault_profile="chaos-mix",
                fault_horizon=0.6,
            )
            cluster = CalvinCluster(
                config, workload=build_workload(), monitor_interval=0.05
            )
            cluster.load_workload_data()
            cluster.add_clients(ClientProfile(per_partition=4, max_txns=20))
            cluster.run(duration=0.8)
            cluster.quiesce()
            return cluster

        a = run()
        verified = assert_invariants(a)
        # Coverage floor: every checker applies here and verifies something.
        assert list(verified) == [check.name for check in CHECKS]
        assert all(count > 0 for count in verified.values()), verified
        assert a.fault_injector.monitor_checks > 0
        kinds = {entry[1] for entry in a.fault_injector.trace}
        assert {"crash", "restart", "partition", "heal"} <= kinds

        b = run()
        assert a.fault_injector.trace_digest() == b.fault_injector.trace_digest()
        assert a.replica_fingerprints() == b.replica_fingerprints()
        assert [h[0] for h in a.sorted_history()] == [h[0] for h in b.sorted_history()]

    @pytest.mark.parametrize("config_kwargs,label", SHAPES, ids=[s[1] for s in SHAPES])
    def test_one_random_plan_per_shape(self, config_kwargs, label):
        cluster = run_chaos(config_kwargs, seed=7)
        assert_invariants(cluster)

    def test_same_seed_reproduces_trace_and_state(self):
        a = run_chaos(SHAPES[2][0], seed=5)
        b = run_chaos(SHAPES[2][0], seed=5)
        assert a.fault_injector.trace == b.fault_injector.trace
        assert a.replica_fingerprints() == b.replica_fingerprints()

    def test_different_plan_seeds_draw_different_plans(self):
        config = ClusterConfig(**SHAPES[2][0])
        plans = {
            random_plan(random.Random(seed), config, duration=0.5).describe().split(
                "\n", 1
            )[1]
            for seed in range(8)
        }
        assert len(plans) > 1


@pytest.mark.chaos
class TestChaosSweep:
    """Wider seeded sweeps (opt-in: ``pytest -m chaos``)."""

    @pytest.mark.parametrize("config_kwargs,label", SHAPES, ids=[s[1] for s in SHAPES])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_plans_keep_invariants(self, config_kwargs, label, seed):
        cluster = run_chaos(config_kwargs, seed=seed, monitor=0.05)
        assert_invariants(cluster)

    @pytest.mark.parametrize("seed", [11, 12])
    def test_determinism_across_shapes(self, seed):
        for config_kwargs, _label in SHAPES[:3]:
            a = run_chaos(config_kwargs, seed=seed)
            b = run_chaos(config_kwargs, seed=seed)
            assert a.fault_injector.trace_digest() == b.fault_injector.trace_digest()
            assert a.replica_fingerprints() == b.replica_fingerprints()

    @pytest.mark.parametrize("profile", ["replica-crash", "site-partition",
                                         "flaky-links", "chaos-mix"])
    def test_named_profiles_on_paxos_pair(self, profile):
        config = ClusterConfig(
            num_partitions=2, num_replicas=2, replication_mode="paxos",
            seed=31, fault_profile=profile, fault_horizon=0.5,
        )
        cluster = CalvinCluster(
            config, workload=build_workload(), monitor_interval=0.05
        )
        cluster.load_workload_data()
        cluster.add_clients(ClientProfile(per_partition=3, max_txns=12))
        cluster.run(duration=0.7)
        cluster.quiesce()
        assert_invariants(cluster)
