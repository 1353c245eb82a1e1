"""Targeted edge cases across layers, added after the main suites."""

import pytest

from repro import CalvinCluster, ClientProfile, ClusterConfig, Microbenchmark
from repro.sim import AnyOf, Simulator, Timeout


class TestSimCombinatorEdges:
    def test_anyof_child_failure_propagates(self):
        sim = Simulator()
        bad = sim.event()
        any_event = AnyOf(sim, [Timeout(sim, 5.0), bad])
        bad.fail(RuntimeError("child"))
        with pytest.raises(RuntimeError, match="child"):
            sim.run(until=1.0)  # nobody waits on the combined event
        assert any_event.ok is False

    def test_allof_over_already_triggered_children(self):
        sim = Simulator()
        done = sim.event().succeed("x")
        sim.run()
        combined = sim.all_of([done, sim.timeout(1.0, "y")])
        sim.run()
        assert combined.value == ["x", "y"]

    def test_anyof_over_already_triggered_child(self):
        sim = Simulator()
        done = sim.event().succeed("ready")
        sim.run()
        any_event = sim.any_of([done, sim.timeout(9.0)])
        sim.run(until=1.0)
        assert any_event.value == (0, "ready")


class TestDiskStallBlocksConflicts:
    def test_cold_stall_holds_locks_and_delays_conflicting_txn(self):
        """With estimation forced wrong, a disk-bound transaction stalls
        holding its locks; a conflicting later transaction must wait the
        disk latency out (the Section 4 hazard, observed directly)."""
        workload = Microbenchmark(
            mp_fraction=0.0, hot_set_size=1, cold_set_size=100,
            archive_fraction=1.0, archive_set_size=400,
        )
        config = ClusterConfig(
            num_partitions=1, seed=6,
            disk_enabled=True, disk_estimate_error=1.0,
        )
        cluster = CalvinCluster(config, workload=workload)
        cluster.load_workload_data()
        cluster.add_clients(ClientProfile(per_partition=4, max_txns=5))
        cluster.run(duration=0.2)
        cluster.quiesce()
        # All transactions share the single hot key, so every one queues
        # behind a possibly disk-stalled predecessor; with ~10ms seeks
        # and only the 2ms deferral margin, execution latency must absorb
        # real stalls.
        report = cluster.metrics.report(cluster.sim.now)
        assert cluster.metrics.committed == 20
        assert report.execution_mean > 0.002

    def test_remote_reads_buffered_before_admission(self):
        """A remote read arriving before its transaction is admitted is
        buffered, not dropped (mailbox is keyed by sequence number)."""
        from repro.net.messages import RemoteRead

        workload = Microbenchmark(hot_set_size=5, cold_set_size=60)
        cluster = CalvinCluster(ClusterConfig(num_partitions=2, seed=1),
                                workload=workload)
        scheduler = cluster.node(0, 0).scheduler
        early = RemoteRead((5, 1, 0), 1, {("cold", 1, 3): 42})
        scheduler.receive_remote_read(early)
        assert scheduler.remote_reads_for((5, 1, 0)) == {1: {("cold", 1, 3): 42}}


class TestHarnessBaselinePath:
    def test_run_baseline_helper(self):
        from repro.baseline.cluster import BaselineCluster
        from repro.bench.harness import ScaleProfile, measure

        profile = ScaleProfile.get("smoke")
        workload = Microbenchmark(mp_fraction=0.1, hot_set_size=1000)
        built = []
        report = measure(
            workload,
            ClusterConfig(num_partitions=2, seed=4, engine="baseline"),
            profile,
            clients_per_partition=60,
            on_cluster=built.append,
        )
        assert report.throughput > 1000
        assert type(built[0]) is BaselineCluster

    def test_machine_sweep_custom_targets(self):
        from repro.bench.harness import ScaleProfile, machine_sweep

        profile = ScaleProfile.get("full")
        assert machine_sweep(profile, targets=(3, 5, 99)) == [3, 5]
