"""Component-level tests for scheduler/sequencer behaviour, driven
through small live clusters (the components are deeply wired to the
node, so black-box behavioural assertions are the honest unit)."""

import pytest

from repro import CalvinCluster, ClientProfile, ClusterConfig, Microbenchmark
from repro.errors import SchedulerError
from tests.conftest import BankWorkload


def tiny_cluster(partitions=2, seed=1, **config_kwargs):
    workload = Microbenchmark(mp_fraction=0.3, hot_set_size=5, cold_set_size=50)
    config = ClusterConfig(num_partitions=partitions, seed=seed, **config_kwargs)
    cluster = CalvinCluster(config, workload=workload)
    cluster.load_workload_data()
    return cluster


class TestEpochBarrier:
    def test_schedulers_advance_epochs_together(self):
        cluster = tiny_cluster()
        cluster.add_clients(ClientProfile(per_partition=4, max_txns=10))
        cluster.run(duration=0.2)
        cluster.quiesce()
        epochs = {cluster.node(0, p).scheduler._next_epoch for p in range(2)}
        # Both schedulers processed a contiguous prefix of epochs.
        assert max(epochs) - min(epochs) <= 1

    def test_empty_epochs_still_flow(self):
        cluster = tiny_cluster()
        cluster.start()
        cluster.sim.run(until=0.1)  # no clients at all
        scheduler = cluster.node(0, 0).scheduler
        assert scheduler._next_epoch >= 8  # ~10 epochs of 10ms
        assert scheduler.admitted == 0

    def test_every_participant_admits_txn(self):
        cluster = tiny_cluster()
        cluster.add_clients(ClientProfile(per_partition=4, max_txns=10))
        cluster.run(duration=0.2)
        cluster.quiesce()
        # Multipartition txns admitted on every participant: total
        # admissions >= total executed txns.
        total_admitted = sum(cluster.node(0, p).scheduler.admitted for p in range(2))
        assert total_admitted >= cluster.metrics.committed

    def test_duplicate_subbatch_absorbed_conflicting_rejected(self):
        # A faulty network may duplicate sub-batches: identical copies
        # are absorbed (idempotent intake), conflicting ones still raise.
        cluster = tiny_cluster()
        from repro.net.messages import SubBatch
        from repro.txn.transaction import SequencedTxn, Transaction

        scheduler = cluster.node(0, 0).scheduler
        scheduler.receive_subbatch(SubBatch(0, 0, ()))
        scheduler.receive_subbatch(SubBatch(0, 0, ()))
        assert scheduler.admitted == 0
        txn = Transaction.create(
            1, "micro", None, [("hot", 0, 0)], [("hot", 0, 0)]
        )
        route = cluster.catalog.route(txn, 0)
        conflicting = SubBatch(0, 0, (SequencedTxn((0, 0, 0), txn, route),))
        with pytest.raises(SchedulerError):
            scheduler.receive_subbatch(conflicting)


class TestSequencer:
    def test_only_replica_zero_accepts_input(self):
        workload = Microbenchmark()
        config = ClusterConfig(
            num_partitions=1, num_replicas=2, replication_mode="async"
        )
        cluster = CalvinCluster(config, workload=workload)
        assert cluster.node(0, 0).sequencer.accepts_input
        assert not cluster.node(1, 0).sequencer.accepts_input

    def test_input_log_contains_all_epochs(self):
        cluster = tiny_cluster()
        cluster.add_clients(ClientProfile(per_partition=4, max_txns=5))
        cluster.run(duration=0.2)
        cluster.quiesce()
        log = cluster.node(0, 0).input_log
        epochs = [entry.epoch for entry in log]
        assert epochs == sorted(epochs)
        assert epochs == list(range(len(epochs)))  # no gaps, empties logged

    def test_dispatch_idempotent(self):
        cluster = tiny_cluster()
        sequencer = cluster.node(0, 0).sequencer
        sequencer.dispatch(0, ())
        sequencer.dispatch(0, ())  # duplicate (paxos redelivery) ignored
        assert len(sequencer.input_log) == 1

    def test_sequenced_counter(self):
        cluster = tiny_cluster()
        cluster.add_clients(ClientProfile(per_partition=4, max_txns=5))
        cluster.run(duration=0.2)
        cluster.quiesce()
        sequenced = sum(
            cluster.node(0, p).sequencer.txns_sequenced for p in range(2)
        )
        assert sequenced >= 2 * 4 * 5


def _count_resolves(cluster, monkeypatch):
    """Record every transaction the cluster's catalog routes."""
    routed = []
    route = cluster.catalog.route

    def counting(txn, epoch):
        routed.append(txn.txn_id)
        return route(txn, epoch)

    monkeypatch.setattr(cluster.catalog, "route", counting)
    return routed


class TestBatchShare:
    """Every replica hosting an origin dispatches the same agreed batch;
    its routes are resolved once per cluster and shared while in flight."""

    @pytest.mark.parametrize("mode", ["paxos", "async"])
    def test_each_batch_is_resolved_once_and_the_share_empties(self, mode, monkeypatch):
        cluster = tiny_cluster(num_replicas=3, replication_mode=mode)
        routed = _count_resolves(cluster, monkeypatch)
        cluster.add_clients(ClientProfile(per_partition=4, max_txns=10))
        cluster.run(duration=0.3)
        cluster.quiesce()
        logged = {
            replica: sorted(
                txn.txn_id for entry in cluster.merged_log(replica) for txn in entry.txns
            )
            for replica in range(3)
        }
        assert len(logged[0]) >= 2 * 4 * 10
        assert logged[0] == logged[1] == logged[2]
        assert sorted(routed) == logged[0]  # once per cluster, not per replica
        assert cluster.batch_share == {}

    def test_an_equal_but_distinct_batch_is_resolved_afresh(self):
        # Reuse is by batch identity, not by (epoch, origin): a replica
        # dispatching a batch of its own (say, a diverging one) must not
        # be handed another replica's sequenced transactions.
        from repro.txn.transaction import Transaction

        cluster = tiny_cluster(num_replicas=3, replication_mode="async")
        here = next(iter(cluster.node(0, 0).store.keys()))
        there = next(iter(cluster.node(0, 1).store.keys()))
        batch = (
            Transaction.create(1, "micro", None, [here], [here]),
            Transaction.create(2, "micro", None, [here, there], [here, there]),
        )
        sent = {replica: [] for replica in range(3)}
        for replica, messages in sent.items():
            sequencer = cluster.node(replica, 0).sequencer
            sequencer.send = lambda dst, message, size, out=messages: out.append(message)
        cluster.node(0, 0).sequencer.dispatch(0, batch)
        copy = tuple(list(batch))
        assert copy == batch and copy is not batch
        cluster.node(1, 0).sequencer.dispatch(0, copy)
        assert cluster.batch_share  # replica 2 has yet to dispatch
        cluster.node(2, 0).sequencer.dispatch(0, batch)
        assert cluster.batch_share == {}
        cluster.sim.run(until=0.01)
        stxns = {
            replica: [stxn for message in messages for stxn in message.txns]
            for replica, messages in sent.items()
        }
        assert len(stxns[0]) == 3  # partition 0 twice, partition 1 once
        views = {r: [(s.seq, s.txn, dict(s.route)) for s in stxns[r]] for r in stxns}
        assert views[0] == views[1] == views[2]
        assert all(mine is theirs for mine, theirs in zip(stxns[2], stxns[0]))
        assert not any(mine is theirs for mine, theirs in zip(stxns[1], stxns[0]))


class TestPauseQuiesce:
    def test_pause_blocks_future_epochs(self):
        cluster = tiny_cluster(partitions=1)
        cluster.add_clients(ClientProfile(per_partition=4))
        cluster.run(duration=0.1)
        scheduler = cluster.node(0, 0).scheduler
        barrier = scheduler._next_epoch + 2
        quiesced = scheduler.pause_before_epoch(barrier)
        cluster.sim.run(until=cluster.sim.now + 0.2)
        assert quiesced.triggered
        assert scheduler._next_epoch == barrier
        assert scheduler.outstanding == 0
        scheduler.resume()
        cluster.sim.run(until=cluster.sim.now + 0.1)
        assert scheduler._next_epoch > barrier

    def test_double_pause_rejected(self):
        cluster = tiny_cluster(partitions=1)
        scheduler = cluster.node(0, 0).scheduler
        scheduler.pause_before_epoch(5)
        with pytest.raises(SchedulerError):
            scheduler.pause_before_epoch(6)

    def test_resume_without_pause_rejected(self):
        cluster = tiny_cluster(partitions=1)
        with pytest.raises(SchedulerError):
            cluster.node(0, 0).scheduler.resume()

    def test_fast_forward_only_on_fresh_scheduler(self):
        cluster = tiny_cluster(partitions=1)
        cluster.node(0, 0).scheduler.fast_forward(10)
        assert cluster.node(0, 0).scheduler._next_epoch == 10
        with pytest.raises(SchedulerError):
            cluster.node(0, 0).scheduler.fast_forward(20)


class TestPassiveParticipants:
    def test_read_only_multipartition_has_passive_side(self):
        # Bank workload with read-only multi-partition audit procedure.
        from repro.txn.procedures import Procedure

        workload = BankWorkload(accounts_per_partition=4)
        cluster = CalvinCluster(
            ClusterConfig(num_partitions=2, seed=2), workload=workload
        )
        cluster.load_workload_data()
        cluster.registry.register(
            Procedure("audit", lambda ctx: sum(
                ctx.read(k) or 0 for k in sorted(ctx.txn.read_set, key=repr)
            ))
        )
        # Submit a read-only txn across both partitions via a bare driver.
        from repro.net.messages import ClientSubmit
        from repro.partition.catalog import NodeId, node_address
        from repro.txn.transaction import Transaction

        results = []
        cluster.network.register(("driver", 0, 0), lambda src, msg: results.append(msg))
        keys = [("acct", 0, 0), ("acct", 1, 0)]
        txn = Transaction.create(
            txn_id=99, procedure="audit", args=None,
            read_set=keys, write_set=[],
            origin_partition=0, client=("driver", 0, 0),
        )
        cluster.start()
        cluster.network.send(
            ("driver", 0, 0), node_address(NodeId(0, 0)), ClientSubmit(txn), 256
        )
        cluster.sim.run(until=0.1)
        assert len(results) == 1
        assert results[0].result.value == 200
        # Partition 1 held the passive role (no writes there).
        assert cluster.node(0, 1).scheduler.passive_completions == 1
