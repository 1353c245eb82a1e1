"""Component-level tests for scheduler/sequencer behaviour, driven
through small live clusters (the components are deeply wired to the
node, so black-box behavioural assertions are the honest unit)."""

import dataclasses
from collections import Counter

import pytest

from repro import (
    CalvinCluster,
    ClientProfile,
    ClusterConfig,
    Microbenchmark,
    TpccWorkload,
)
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


    def test_a_duplicated_submit_of_a_rejected_request_is_ignored(self):
        # The dedupe record keeps every id submitted, rejected ones
        # included: a lossy network may deliver a rejected request's
        # ClientSubmit twice, and the copy must not be offered again.
        from repro.net.messages import TxnReply
        from repro.txn.result import TxnStatus
        from repro.txn.transaction import Transaction

        config = ClusterConfig(
            num_partitions=1,
            seed=1,
            admission_policy="shed",
            admission_epoch_budget=1,
            admission_queue_capacity=1,
        )
        cluster = CalvinCluster(config, workload=Microbenchmark(cold_set_size=50))
        cluster.load_workload_data()
        sequencer = cluster.node(0, 0).sequencer
        admission = sequencer.admission
        replies = []
        admission.send = lambda dst, message, size: replies.append(message)
        key = next(iter(cluster.node(0, 0).store.keys()))
        # Ids that share a bit position in different words, negative and
        # very large ones: none is a duplicate of another.
        ids = [0, 64, 2**70, -1, 63, -65, 2**70 + 64]
        txns = [Transaction.create(i, "micro", None, [key], [key]) for i in ids]
        for txn in txns:
            sequencer.submit(txn)
        # The budget admits the first, the queue holds the second, the
        # rest are shed.
        assert admission.offered == len(ids)
        assert all(isinstance(message, TxnReply) for message in replies)
        assert [m.result.txn_id for m in replies] == ids[2:]
        assert {m.result.status for m in replies} == {TxnStatus.REJECTED}
        for txn in reversed(txns):
            sequencer.submit(txn)
        assert admission.offered == len(ids)
        assert len(replies) == len(ids) - 2


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


class _RecordingShare(dict):
    """An outcome share that counts the entries stored in it and can
    plant a snapshot into the first one."""

    def __init__(self, plant=False):
        super().__init__()
        self.stored = 0
        self.plant = plant
        self.planted = None

    def __setitem__(self, seq, entry):
        self.stored += 1
        if self.plant and self.planted is None:
            # Same keys, one value changed: what a participant that read
            # a diverging snapshot would have stored.
            snapshot = dict(entry[0])
            key = next(iter(snapshot))
            snapshot[key] = ("planted", snapshot[key])
            entry[0] = snapshot
            self.planted = (seq, list(entry))
        super().__setitem__(seq, entry)


def _record_shares(cluster, plant=False):
    """Swap each replica's outcome share for a recording one."""
    shares = [_RecordingShare(plant) for _ in cluster.outcome_shares]
    cluster.outcome_shares = shares
    for node_id, node in cluster.nodes.items():
        node.scheduler.outcomes = shares[node_id.replica]
    return shares


def _count_logic(cluster, monkeypatch, name):
    """Record the txn id of every run of procedure ``name``'s logic."""
    runs = []
    procedure = cluster.registry.get(name)

    def counting(ctx):
        runs.append(ctx.txn.txn_id)
        return procedure.logic(ctx)

    monkeypatch.setitem(
        cluster.registry._procedures,
        name,
        dataclasses.replace(procedure, logic=counting),
    )
    return runs


def _tpcc_cluster(**config_kwargs):
    config = ClusterConfig(num_partitions=4, seed=3, **config_kwargs)
    workload = TpccWorkload(mix={"new_order": 1.0}, remote_fraction=0.3)
    cluster = CalvinCluster(config, workload=workload)
    cluster.load_workload_data()
    return cluster


def _micro_cluster(**config_kwargs):
    workload = Microbenchmark(mp_fraction=0.5, hot_set_size=10, cold_set_size=200)
    cluster = CalvinCluster(ClusterConfig(seed=5, **config_kwargs), workload=workload)
    cluster.load_workload_data()
    return cluster


_GEO = dict(
    num_partitions=2,
    num_replicas=3,
    replication_mode="paxos",
    topology="ring",
    wan_latency=0.01,
    wan_bandwidth=12.5e6,
    partial_hosting=((0, 1), (0,), (1,)),
)
_CHAOS = dict(
    num_partitions=2,
    num_replicas=2,
    replication_mode="paxos",
    fault_profile="chaos-mix",
    fault_horizon=0.6,
)
SHARE_SHAPES = {
    "tpcc-4p": lambda: _tpcc_cluster(),
    "micro-high": lambda: _micro_cluster(num_partitions=2),
    "paxos-3r": lambda: _micro_cluster(
        num_partitions=2, num_replicas=3, replication_mode="paxos"
    ),
    "geo-paxos-3r": lambda: _micro_cluster(**_GEO),
    "chaos-mix": lambda: _micro_cluster(**_CHAOS),
}


class TestOutcomeShare:
    """Every active participant of a multipartition transaction runs the
    same logic on the same snapshot; each replica runs it once and its
    other active participants apply their part of that outcome."""

    def test_new_order_runs_once_per_new_order_per_replica(self, monkeypatch):
        cluster = _tpcc_cluster(num_replicas=2, replication_mode="async")
        runs = _count_logic(cluster, monkeypatch, "new_order")
        shares = _record_shares(cluster)
        cluster.add_clients(ClientProfile(per_partition=3, max_txns=4))
        cluster.run(duration=0.3)
        cluster.quiesce()
        sequenced = [
            txn.txn_id
            for entry in cluster.merged_log()
            for txn in entry.txns
            if txn.procedure == "new_order"
        ]
        assert len(sequenced) == 4 * 3 * 4
        assert Counter(runs) == Counter({txn_id: 2 for txn_id in sequenced})
        # Not vacuous: some New Orders had several active participants.
        assert shares[0].stored == shares[1].stored > 0

    @pytest.mark.parametrize("shape", sorted(SHARE_SHAPES))
    def test_the_share_is_empty_after_quiesce(self, shape):
        cluster = SHARE_SHAPES[shape]()
        shares = _record_shares(cluster)
        cluster.add_clients(ClientProfile(per_partition=4, max_txns=10))
        cluster.run(duration=0.8 if shape == "chaos-mix" else 0.3)
        cluster.quiesce()
        assert shares[0].stored > 0
        if shape == "geo-paxos-3r":
            # Replicas 1 and 2 host one partition each: they apply
            # shipped writesets and never execute a multipartition txn.
            assert shares[1].stored == shares[2].stored == 0
        if shape == "chaos-mix":
            kinds = {entry[1] for entry in cluster.fault_injector.trace}
            assert {"crash", "restart"} <= kinds
        assert all(share == {} for share in shares)

    def test_a_differing_snapshot_runs_the_logic_and_leaves_the_entry(
        self, monkeypatch
    ):
        cluster = _micro_cluster(num_partitions=2)
        runs = _count_logic(cluster, monkeypatch, "micro")
        (share,) = _record_shares(cluster, plant=True)
        cluster.add_clients(ClientProfile(per_partition=4, max_txns=10))
        cluster.run(duration=0.3)
        cluster.quiesce()
        seq, planted = share.planted
        # The other active participant's snapshot did not compare equal,
        # so it ran the logic itself, and the entry is as it was planted.
        assert share == {seq: planted}
        txn = next(
            txn
            for entry in cluster.merged_log()
            if entry.epoch == seq[0] and entry.origin_partition == seq[1]
            for index, txn in enumerate(entry.txns)
            if index == seq[2]
        )
        assert runs.count(txn.txn_id) == 2
        # Every other multipartition txn still ran its logic once.
        assert len(runs) == len(set(runs)) + 1


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
