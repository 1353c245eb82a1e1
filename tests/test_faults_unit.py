"""Unit tests for the fault-injection subsystem, one primitive at a time.

The network/kernel/disk hooks are exercised directly against the sim
clock (exact delivery times and orderings), then each FaultPlan
primitive is driven through a live cluster via the injector.
"""

import random

import pytest

from repro import CalvinCluster, ClientProfile, ClusterConfig, Microbenchmark
from repro.core import checkers
from repro.errors import ConfigError, SimulationError, StorageError
from repro.faults import FaultInjector, FaultPlan, build_profile, random_plan
from repro.faults.profiles import FAULT_PROFILES
from repro.sim.kernel import Simulator
from repro.sim.network import DeliveryVerdict, Network, lan_topology
from repro.storage.disk import DiskFaultMode, SimulatedDisk


def make_net(latency=0.001):
    sim = Simulator()
    net = Network(sim, lan_topology(latency=latency))
    inbox = []
    net.register("a", lambda src, msg: inbox.append(("a", sim.now, msg)))
    net.register("b", lambda src, msg: inbox.append(("b", sim.now, msg)))
    return sim, net, inbox


class TestNetworkFaultHooks:
    def test_clean_delivery_at_link_latency(self):
        sim, net, inbox = make_net(latency=0.001)
        net.send("a", "b", "m1", size=0)
        sim.run()
        assert inbox == [("b", 0.001, "m1")]

    def test_drop_verdict_loses_the_message(self):
        sim, net, inbox = make_net()
        net.fault_filter = lambda now, s, d, m, z: DeliveryVerdict(drop=True)
        net.send("a", "b", "m1", size=0)
        sim.run()
        assert inbox == []
        assert net.messages_dropped == 1
        assert net.messages_sent == 1  # counted as sent, lost in flight

    def test_hold_verdict_gives_filter_custody(self):
        sim, net, inbox = make_net()
        held = []
        net.fault_filter = (
            lambda now, s, d, m, z: (held.append((s, d, m, z)), DeliveryVerdict(hold=True))[1]
        )
        net.send("a", "b", "m1", size=0)
        sim.run()
        assert inbox == [] and held == [("a", "b", "m1", 0)]
        assert net.messages_held == 1
        # The filter re-sends later (heal); delivery then proceeds.
        net.fault_filter = None
        net.send(*held[0][:3], held[0][3])
        sim.run()
        assert [entry[2] for entry in inbox] == ["m1"]

    def test_extra_delay_lands_after_fifo_clamp_and_reorders(self):
        sim, net, inbox = make_net(latency=0.001)
        # First message delayed by 5 ms, second clean: the second must
        # overtake the first — exactly the reordering fault modelled.
        verdicts = [DeliveryVerdict(extra_delay=0.005), DeliveryVerdict()]
        net.fault_filter = lambda now, s, d, m, z: verdicts.pop(0)
        net.send("a", "b", "slow", size=0)
        net.send("a", "b", "fast", size=0)
        sim.run()
        assert [m for _, _, m in inbox] == ["fast", "slow"]
        slow_at = next(t for _, t, m in inbox if m == "slow")
        assert slow_at == pytest.approx(0.001 + net._fifo_epsilon + 0.005)
        assert net.messages_delayed == 1

    def test_duplicate_verdict_delivers_n_copies(self):
        sim, net, inbox = make_net()
        net.fault_filter = lambda now, s, d, m, z: DeliveryVerdict(copies=3)
        net.send("a", "b", "m", size=0)
        sim.run()
        assert [m for _, _, m in inbox] == ["m", "m", "m"]
        assert net.messages_duplicated == 2

    def test_fifo_preserved_without_faults(self):
        sim, net, inbox = make_net(latency=0.001)
        for index in range(5):
            net.send("a", "b", index, size=0)
        sim.run()
        assert [m for _, _, m in inbox] == list(range(5))


class TestKernelSuspendResume:
    def test_suspended_owner_parks_due_entries(self):
        sim = Simulator()
        fired = []
        sim.schedule_owned("n", 0.010, fired.append, "t1")
        sim.schedule_owned("n", 0.020, fired.append, "t2")
        sim.schedule(0.015, fired.append, "other")
        sim.suspend_owner("n")
        sim.run(until=0.050)
        assert fired == ["other"]  # owned timers parked, others ran

    def test_resume_replays_parked_in_order_at_resume_time(self):
        sim = Simulator()
        fired = []
        sim.schedule_owned("n", 0.010, lambda: fired.append(("t1", sim.now)))
        sim.schedule_owned("n", 0.020, lambda: fired.append(("t2", sim.now)))
        sim.suspend_owner("n")
        sim.run(until=0.050)
        sim.resume_owner("n")
        sim.run(until=0.060)
        assert [name for name, _ in fired] == ["t1", "t2"]
        assert all(at == 0.050 for _, at in fired)

    def test_discard_parked_drops_timers(self):
        sim = Simulator()
        fired = []
        sim.schedule_owned("n", 0.010, fired.append, "t1")
        sim.suspend_owner("n")
        sim.run(until=0.020)
        assert sim.discard_parked("n") == 1
        sim.resume_owner("n")
        sim.run(until=0.040)
        assert fired == []

    def test_anonymous_owner_cannot_be_suspended(self):
        with pytest.raises(SimulationError):
            Simulator().suspend_owner(None)


class TestDiskFaults:
    def _disk(self, seed=1):
        from repro.config import CostModel

        sim = Simulator()
        costs = CostModel(disk_latency_mean=0.010, disk_latency_jitter=0.0)
        return sim, SimulatedDisk(sim, random.Random(seed), costs)

    def test_latency_multiplier_and_extra_latency(self):
        sim, disk = self._disk()
        assert disk.access_latency() == pytest.approx(0.010)
        disk.set_fault_mode(DiskFaultMode(latency_multiplier=4.0, extra_latency=0.002))
        assert disk.access_latency() == pytest.approx(0.042)
        disk.set_fault_mode(None)
        assert disk.access_latency() == pytest.approx(0.010)

    def test_torn_io_retries_and_counts(self):
        sim, disk = self._disk()
        disk.set_fault_mode(DiskFaultMode(torn_io_prob=0.5))
        for _ in range(20):
            done = disk.fetch(("k",))
            sim.run_until_triggered(done)
        assert disk.torn_accesses > 0
        # Each retry pays a full access latency on top of the base ones.
        assert disk.total_latency == pytest.approx(
            0.010 * (20 + disk.torn_accesses)
        )

    def test_torn_retry_bound(self):
        sim, disk = self._disk()
        disk.set_fault_mode(DiskFaultMode(torn_io_prob=0.99, max_retries=3))
        done = disk.fetch(("k",))
        sim.run_until_triggered(done)  # terminates despite 99% tear rate
        assert disk.torn_accesses <= 3

    def test_fault_mode_validation(self):
        with pytest.raises(StorageError):
            DiskFaultMode(latency_multiplier=0.0)
        with pytest.raises(StorageError):
            DiskFaultMode(extra_latency=-1.0)
        with pytest.raises(StorageError):
            DiskFaultMode(torn_io_prob=1.0)


class TestFaultPlan:
    def test_builders_validate(self):
        plan = FaultPlan(name="p")
        with pytest.raises(ConfigError):
            plan.crash(at=-1.0, replica=0)
        with pytest.raises(ConfigError):
            plan.crash(at=0.5, replica=0, until=0.4)  # window ends early
        with pytest.raises(ConfigError):
            plan.link_faults(at=0.0, drop=1.5)
        with pytest.raises(ConfigError):
            plan.partition_sites(at=0.0, group_a=[0], group_b=[0])  # overlap
        with pytest.raises(ConfigError):
            plan.partition_sites(at=0.0, group_a=[], group_b=[1])
        with pytest.raises(ConfigError):
            plan.disk_fault(at=0.0, torn_io_prob=1.0)

    def test_events_sorted_and_horizon(self):
        plan = FaultPlan(name="p")
        plan.disk_fault(at=0.3, until=0.9, latency_multiplier=2.0)
        plan.crash(at=0.1, replica=0, until=0.2)
        assert [e.kind for e in plan.events] == ["crash", "disk"]
        assert plan.horizon() == pytest.approx(0.9)
        assert len(plan) == 2

    def test_shape_validation(self):
        plan = FaultPlan(name="p").crash(at=0.1, replica=5)
        with pytest.raises(ConfigError):
            plan.validate(num_replicas=2, num_partitions=2)
        plan2 = FaultPlan(name="p").partition_sites(
            at=0.1, group_a=[0], group_b=[3]
        )
        with pytest.raises(ConfigError):
            plan2.validate(num_replicas=2, num_partitions=2)

    def test_describe_mentions_every_event(self):
        plan = FaultPlan(name="p").pause(at=0.1, replica=0, until=0.2)
        text = plan.describe()
        assert "pause" in text and "0.100" in text

    def test_unknown_profile_rejected(self):
        with pytest.raises(ConfigError):
            build_profile("no-such-profile", ClusterConfig(), 1.0)
        with pytest.raises(ConfigError):
            ClusterConfig(fault_profile="no-such-profile").validate()

    def test_every_profile_builds_for_an_adequate_cluster(self):
        config = ClusterConfig(
            num_partitions=2, num_replicas=2, replication_mode="paxos"
        )
        for name in FAULT_PROFILES:
            plan = build_profile(name, config, duration=1.0)
            plan.validate(config.num_replicas, config.num_partitions)
            assert plan.name == name and len(plan) >= 1

    def test_random_plan_always_survivable_shape(self):
        config = ClusterConfig(num_partitions=2)  # single replica
        for seed in range(20):
            plan = random_plan(random.Random(seed), config, duration=1.0)
            plan.validate(config.num_replicas, config.num_partitions)
            for event in plan:
                assert event.kind in ("pause", "disk", "link")
                assert event.until is not None  # every fault heals


def fault_cluster(plan, seed=3, **config_kwargs):
    config_kwargs.setdefault("num_partitions", 2)
    config = ClusterConfig(seed=seed, **config_kwargs)
    cluster = CalvinCluster(
        config,
        workload=Microbenchmark(mp_fraction=0.3, hot_set_size=10, cold_set_size=100),
        fault_plan=plan,
    )
    cluster.load_workload_data()
    return cluster


class TestInjectorPrimitives:
    def test_injector_claims_network_hook_exclusively(self):
        plan = FaultPlan(name="p").pause(at=0.1, replica=0, partition=0, until=0.2)
        cluster = fault_cluster(plan)
        assert cluster.network.fault_filter is not None
        with pytest.raises(ConfigError):
            FaultInjector(cluster, FaultPlan(name="q")).install()

    def test_pause_stalls_then_catches_up(self):
        plan = FaultPlan(name="p").pause(at=0.05, replica=0, partition=0, until=0.25)
        cluster = fault_cluster(plan)
        cluster.add_clients(ClientProfile(per_partition=3, max_txns=10))
        cluster.start()
        for client in cluster.clients:
            client.start()
        cluster.sim.run(until=0.20)
        paused = cluster.node(0, 0).scheduler.completed
        cluster.sim.run(until=0.7)
        cluster.quiesce()
        assert cluster.node(0, 0).scheduler.completed > paused
        checkers.check_serializability(cluster)
        assert any(entry[1] == "hold" for entry in cluster.fault_injector.trace)

    def test_crash_restart_resync_converges_replicas(self):
        plan = FaultPlan(name="p").crash(at=0.15, replica=1, until=0.35, resync=True)
        cluster = fault_cluster(
            plan, num_replicas=2, replication_mode="paxos"
        )
        cluster.add_clients(ClientProfile(per_partition=3, max_txns=10))
        cluster.run(duration=0.6)
        cluster.quiesce()
        checkers.check_replica_consistency(cluster)
        checkers.check_serializability(cluster)
        assert cluster.node(1, 0).suppressed_sends >= 0  # restart flushed holds

    def test_custody_from_a_crashed_sender_goes_out_at_heal(self):
        # The cut heals while a sender is still crashed: what it buffered
        # was sent before the crash, so it goes out now instead of being
        # parked with the node's own sends until restart.
        plan = (
            FaultPlan(name="p")
            .partition_sites(at=0.05, group_a=[0], group_b=[1], until=0.3, mode="buffer")
            .crash(at=0.1, replica=1, partition=0, until=0.5, resync=True)
        )
        cluster = fault_cluster(plan, num_replicas=2, replication_mode="paxos")
        cluster.add_clients(ClientProfile(per_partition=3, max_txns=10))
        cluster.start()
        for client in cluster.clients:
            client.start()
        cluster.sim.run(until=0.31)
        heal = next(entry for entry in cluster.fault_injector.trace if entry[1] == "heal")
        node = cluster.node(1, 0)
        assert heal[3] > 0 and node.crashed
        assert node.suppressed_sends == 0
        cluster.sim.run(until=0.8)
        cluster.quiesce()
        checkers.check_replica_consistency(cluster)

    def test_buffer_partition_holds_then_heals(self):
        plan = FaultPlan(name="p").partition_sites(
            at=0.1, group_a=[0], group_b=[1], until=0.3, mode="buffer"
        )
        cluster = fault_cluster(plan, num_replicas=2, replication_mode="paxos")
        cluster.add_clients(ClientProfile(per_partition=3, max_txns=10))
        cluster.run(duration=0.6)
        cluster.quiesce()
        trace = cluster.fault_injector.trace
        heal = next(entry for entry in trace if entry[1] == "heal")
        assert heal[3] > 0  # messages were buffered across the cut
        assert cluster.network.messages_held == heal[3]
        checkers.check_replica_consistency(cluster)

    def test_drop_partition_loses_messages(self):
        plan = FaultPlan(name="p").partition_sites(
            at=0.1, group_a=[0], group_b=[1], until=0.3, mode="drop"
        )
        cluster = fault_cluster(plan, num_replicas=2, replication_mode="async")
        cluster.add_clients(ClientProfile(per_partition=3, max_txns=5))
        cluster.run(duration=0.45)
        assert cluster.network.messages_dropped > 0

    def test_link_duplicates_are_absorbed(self):
        plan = FaultPlan(name="p").link_faults(at=0.05, until=0.4, duplicate=0.5)
        cluster = fault_cluster(plan)
        cluster.add_clients(ClientProfile(per_partition=3, max_txns=10))
        cluster.run(duration=0.6)
        cluster.quiesce()
        assert cluster.network.messages_duplicated > 0
        checkers.check_serializability(cluster)
        checkers.check_no_double_apply(cluster)

    def test_disk_fault_window_slows_then_clears(self):
        workload = Microbenchmark(
            mp_fraction=0.2, hot_set_size=10, cold_set_size=50,
            archive_fraction=0.4, archive_set_size=200,
        )
        plan = FaultPlan(name="p").disk_fault(
            at=0.1, until=0.5, latency_multiplier=5.0, torn_io_prob=0.3
        )
        config = ClusterConfig(num_partitions=2, seed=3, disk_enabled=True)
        cluster = CalvinCluster(config, workload=workload, fault_plan=plan)
        cluster.load_workload_data()
        cluster.add_clients(ClientProfile(per_partition=3, max_txns=10))
        cluster.run(duration=0.8)
        cluster.quiesce()
        torn = sum(
            node.engine.disk.torn_accesses
            for node in cluster.nodes.values()
            if node.engine.disk is not None
        )
        assert torn > 0
        assert all(
            node.engine.disk.fault_mode is None
            for node in cluster.nodes.values()
            if node.engine.disk is not None
        )
        checkers.check_serializability(cluster)

    def test_trace_digest_reproducible(self):
        def run():
            plan = FaultPlan(name="p").link_faults(
                at=0.05, until=0.4, drop=0.0, delay=0.002, duplicate=0.3
            )
            cluster = fault_cluster(plan)
            cluster.add_clients(ClientProfile(per_partition=3, max_txns=8))
            cluster.run(duration=0.6)
            cluster.quiesce()
            return cluster

        a, b = run(), run()
        assert a.fault_injector.trace == b.fault_injector.trace
        assert a.fault_injector.trace_digest() == b.fault_injector.trace_digest()
        assert a.replica_fingerprints() == b.replica_fingerprints()


class TestConfigIntegration:
    def test_profile_via_config(self):
        config = ClusterConfig(
            num_partitions=2, seed=5, fault_profile="node-pause", fault_horizon=0.4
        )
        cluster = CalvinCluster(
            config,
            workload=Microbenchmark(mp_fraction=0.3, hot_set_size=10, cold_set_size=100),
        )
        assert cluster.fault_injector is not None
        assert cluster.fault_injector.plan.name == "node-pause"
        assert cluster.fault_injector.plan.horizon() <= 0.4

    def test_fault_horizon_validation(self):
        with pytest.raises(ConfigError):
            ClusterConfig(fault_horizon=0.0).validate()

    def test_cli_chaos_smoke(self, capsys):
        from repro.cli import main

        code = main([
            "chaos", "--profile", "node-pause", "--seed", "11",
            "--duration", "0.4", "--replicas", "1",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "trace digest" in out and "invariant ok" in out
