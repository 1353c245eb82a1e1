"""The per-node sequencer: epoch batching, disk deferral, dispatch.

Global order construction (paper Section 3): time is divided into
epochs; every input-accepting sequencer closes one batch per epoch; the
agreed global order is "all epoch-e batches in origin-partition order,
then epoch e+1, ...". Schedulers reconstruct this by collecting one
sub-batch per origin per epoch, so the sequencer sends a sub-batch to
*every* scheduler of its replica each epoch, empty ones included.

Each sub-batch carries its transactions as :class:`SequencedTxn`
records, each with its route (phase 1's read/write set analysis).
Every replica hosting an origin dispatches the same agreed batch, and
the analysis is a pure function of it, so it is done once per cluster
(see :meth:`Sequencer._sequenced`).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, TYPE_CHECKING, Tuple

from repro.config import ClusterConfig
from repro.net.messages import ClientSubmit, PrefetchRequest, ReplicaBatch, SubBatch
from repro.obs import CAT_EPOCH, NULL_RECORDER, SpanKind, TraceRecorder
from repro.partition.catalog import Catalog, NodeId, node_address
from repro.sequencer.replication import ReplicationStrategy
from repro.storage.inputlog import InputLog, LogEntry
from repro.txn.transaction import SequencedTxn, Transaction, new_sequenced

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Simulator
    from repro.storage.engine import StorageEngine

SendFn = Callable[[Any, Any, int], None]
# Batches resolved for every replica that dispatches them: (epoch,
# origin) -> [the batch object, what Sequencer._resolve made of it,
# dispatches still expected]. One per cluster, shared by its sequencers.
BatchShare = Dict[Tuple[int, int], list]
# Safety margin added to the (possibly erroneous) fetch-latency estimate
# when deferring a disk-bound transaction.
PREFETCH_MARGIN = 0.002


class Sequencer:
    """One node's sequencer component."""

    def __init__(
        self,
        sim: "Simulator",
        node_id: NodeId,
        catalog: Catalog,
        config: ClusterConfig,
        send: SendFn,
        input_log: InputLog,
        engine: "StorageEngine",
        replication: ReplicationStrategy,
        batch_share: BatchShare,
        tracer: TraceRecorder = NULL_RECORDER,
    ):
        self.sim = sim
        self.tracer = tracer
        # Hoisted is-enabled flag; see Scheduler.
        self._tracing = tracer.enabled
        self.node_id = node_id
        # Only replica 0 takes client input (it leads the Paxos groups).
        self.accepts_input = node_id.replica == 0
        self.catalog = catalog
        self.config = config
        self.send = send
        self.input_log = input_log
        self.engine = engine
        self.replication = replication
        replication.attach(self)
        self._batch_share = batch_share
        # Every replica hosting this origin dispatches each of its batches.
        self._dispatchers = len(catalog.replicas_of_partition(node_id.partition))
        # Timers and pending fan-out are tagged with the node's address
        # so a kernel-level crash (suspend_owner) freezes them with the
        # rest of the node.
        self._owner = node_address(node_id)

        # Admission control (open-loop traffic): installed by the node
        # when the config enables a policy; None = admit everything
        # immediately (bit-for-bit the pre-admission behaviour).
        self.admission = None

        # Optional hook called with (epoch, sequenced) for every batch
        # this sequencer dispatches: its SequencedTxns in batch order,
        # routes included. Pure observation: installers must not mutate
        # the batch or schedule simulator events (STAR's phase controller
        # uses it to track the multipartition fraction).
        self.batch_observer: Any = None

        self._buffer: List[Transaction] = []
        self._epoch = 0
        self._dispatched_epochs = set()
        # Every txn id ever submitted here, rejected ones included, as
        # a bitmap: id >> 6 -> a mask with bit id & 63 set. Ids are
        # handed out consecutively, so one small entry stands for up
        # to 64 of them, and the id ints themselves are not kept.
        self._seen_txn_ids: Dict[int, int] = {}
        self._started = False
        # -- elastic reconfiguration (repro.reconfig) --------------------
        # Control-plane transactions registered for a future epoch; each
        # is prepended to that epoch's batch so it leads the flip epoch
        # in the global serial order. A *dormant* sequencer (a
        # pre-provisioned spare) skips epoch ticking until
        # start_at_epoch(); a *retiring* one stops at its retire epoch
        # and forwards leftover input to a successor origin.
        self._config_txns: dict = {}
        self.dormant = False
        self._retire_epoch = None
        self._successor = None
        # Local input-log durability (only meaningful without replication).
        self._force_log = None
        if config.force_input_log and config.replication_mode == "none":
            from repro.baseline.log import GroupCommitLog

            self._force_log = GroupCommitLog(sim, config.costs.log_force_latency)
        self.txns_sequenced = 0
        self.txns_deferred = 0
        self.batches_dispatched = 0

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        """Begin epoch ticking (input-accepting sequencers only)."""
        if self._started or not self.accepts_input or self.dormant:
            return
        self._started = True
        self.sim.schedule_owned(self._owner, self.config.epoch_duration, self._epoch_tick)

    def start_at_epoch(self, epoch: int) -> None:
        """Wake a dormant spare: its first cut batch is ``epoch``.

        The first tick lands at the same virtual time the established
        sequencers cut ``epoch``, so from the join epoch on this origin
        publishes in lock-step with the rest of the cluster.
        """
        if self._started:
            raise RuntimeError("sequencer already started")
        if not self.accepts_input:
            raise RuntimeError("only input-accepting sequencers join")
        when = (epoch + 1) * self.config.epoch_duration
        if when <= self.sim.now:
            raise RuntimeError(f"join epoch {epoch} is already in the past")
        self.dormant = False
        self._started = True
        self._epoch = epoch
        self.sim.schedule_owned(self._owner, when - self.sim.now, self._epoch_tick)

    def retire_at(self, epoch: int, successor) -> None:
        """Stop cutting batches at ``epoch``; ``epoch - 1`` is the last.

        Input still buffered (or queued in admission) when the retire
        epoch arrives is forwarded to the ``successor`` origin's
        sequencer address as ordinary client submissions.
        """
        if self._retire_epoch is not None:
            raise RuntimeError("sequencer is already retiring")
        if epoch <= self._epoch:
            raise RuntimeError(f"retire epoch {epoch} is already in the past")
        self._retire_epoch = epoch
        self._successor = successor

    # -- control plane (repro.reconfig) -----------------------------------

    def register_config_txn(self, epoch: int, txn: Transaction) -> None:
        """Prepend ``txn`` to the batch cut for ``epoch``.

        Control-plane injection: the transaction becomes part of the
        sequenced input exactly like client traffic — replicated,
        logged, and replayed identically — but leads its epoch so every
        later transaction of the epoch observes the post-flip routing.
        """
        if epoch < self._epoch:
            raise RuntimeError(f"epoch {epoch} has already been cut")
        self._config_txns.setdefault(epoch, []).append(txn)

    @property
    def pending_config_txns(self) -> bool:
        """True while registered control-plane txns await their epoch."""
        return bool(self._config_txns)

    # -- input ---------------------------------------------------------------

    def submit(self, txn: Transaction) -> None:
        """Take a client transaction request at the sequencer front-end.

        Deduplicates (a lossy network may duplicate ClientSubmit
        messages; sequencing the same request twice would double-apply
        it), then routes through admission control when a policy is
        configured — the controller either calls :meth:`accept` now, at
        a later epoch tick (queued), or rejects the request back to the
        client. Without admission control every request is accepted
        immediately.
        """
        if not self.accepts_input:
            raise RuntimeError("client input submitted to a non-input replica")
        txn_id = txn.txn_id
        word = txn_id >> 6
        bit = 1 << (txn_id & 63)
        seen = self._seen_txn_ids.get(word, 0)
        if seen & bit:
            return
        self._seen_txn_ids[word] = seen | bit
        if self.admission is not None:
            self.admission.offer(txn)
        else:
            self.accept(txn)

    def accept(self, txn: Transaction) -> None:
        """Admit a transaction into the current epoch.

        Disk-bound transactions (Section 4) are deferred: prefetch
        requests go out immediately to every participant, and the
        transaction joins whatever epoch is current once the estimated
        fetch latency has elapsed.
        """
        if self._tracing:
            # Arrival at the sequencer opens the sequence (epoch-wait)
            # span; a disk deferral re-stamps it on re-admission.
            self.tracer.mark(("seq-arrival", txn.txn_id), self.sim.now)
        if self.config.disk_enabled:
            cold = self._cold_keys(txn)
            if cold:
                self._defer_for_prefetch(txn, cold)
                return
        self._buffer.append(txn)

    def _cold_keys(self, txn: Transaction):
        # The sequencer applies the *policy* predicate for every key;
        # warmth of remote partitions is unknown here, so it is
        # conservative (its own engine's predicate is cluster policy).
        # In repr order: prefetch messages and fetches go out in it.
        predicate = self.engine._cold_predicate
        return sorted((key for key in txn.all_keys() if predicate(key)), key=repr)

    def _defer_for_prefetch(self, txn: Transaction, cold_keys) -> None:
        self.txns_deferred += 1
        by_partition = {}
        for key in cold_keys:
            by_partition.setdefault(self.catalog.partition_of(key), []).append(key)
        for partition, keys in by_partition.items():
            target = NodeId(self.node_id.replica, partition)
            message = PrefetchRequest(tuple(keys))
            self.send(node_address(target), message, message.size_estimate())
        delay = (
            self.engine.expected_fetch_latency(self.config.disk_estimate_error)
            + PREFETCH_MARGIN
        )
        self.sim.schedule(delay, self._admit_deferred, txn)

    def _admit_deferred(self, txn: Transaction) -> None:
        if self._tracing:
            # The deferral window is disk time: the transaction waited
            # out the expected prefetch latency before joining an epoch.
            start = self.tracer.take_mark(("seq-arrival", txn.txn_id))
            if start is not None:
                self.tracer.record(
                    SpanKind.DISK,
                    start,
                    self.sim.now,
                    replica=self.node_id.replica,
                    partition=self.node_id.partition,
                    txn_id=txn.txn_id,
                    detail="prefetch-defer",
                )
            self.tracer.mark(("seq-arrival", txn.txn_id), self.sim.now)
        # Note: must go through self so it lands in the *current* epoch
        # buffer (the buffer list is rebound at every epoch tick).
        self._buffer.append(txn)

    # -- epochs -----------------------------------------------------------

    def _epoch_tick(self) -> None:
        epoch = self._epoch
        if self._retire_epoch is not None and epoch >= self._retire_epoch:
            self._hand_off()
            return
        self._epoch += 1
        batch, self._buffer = tuple(self._buffer), []
        pending = self._config_txns.pop(epoch, None)
        if pending:
            # Control-plane transactions lead their flip epoch (see
            # repro.reconfig): every later txn of the epoch observes the
            # post-flip routing.
            batch = tuple(pending) + batch
        self.txns_sequenced += len(batch)
        if self._tracing:
            for txn in batch:
                start = self.tracer.take_mark(("seq-arrival", txn.txn_id))
                self.tracer.record(
                    SpanKind.SEQUENCE,
                    txn.submit_time if start is None else start,
                    self.sim.now,
                    replica=self.node_id.replica,
                    partition=self.node_id.partition,
                    txn_id=txn.txn_id,
                    detail=epoch,
                )
            # Publish time opens the replicate span; every replica's
            # dispatch of this epoch closes its own copy.
            self.tracer.mark(("publish", self.node_id.partition, epoch), self.sim.now)
        if self._force_log is not None:
            # Durability before visibility: the batch reaches the
            # schedulers only once its input records are on stable
            # storage (group-committed with neighbouring epochs). Empty
            # epochs ride through the same queue so publish order — and
            # therefore the input log's ordering invariant — holds.
            done = self._force_log.force()
            done.add_callback(
                lambda _event, e=epoch, b=batch: self.replication.publish(e, b)
            )
        else:
            self.replication.publish(epoch, batch)
        if self.admission is not None:
            # New epoch: refill the admission budget and drain queued
            # intake into the (now empty) buffer.
            self.admission.on_epoch_tick()
        self.sim.schedule_owned(self._owner, self.config.epoch_duration, self._epoch_tick)

    def _hand_off(self) -> None:
        """Forward leftover input to the successor origin and stop."""
        leftovers = list(self._buffer)
        self._buffer = []
        if self.admission is not None:
            leftovers.extend(self.admission.drain())
        for txn in leftovers:
            message = ClientSubmit(txn)
            self.send(self._successor, message, message.size_estimate())
        # No reschedule: this origin's last batch was retire_epoch - 1.

    # -- dispatch (fan sub-batches to this replica's schedulers) -----------

    def dispatch(self, epoch: int, txns: Tuple[Transaction, ...]) -> None:
        """Log the batch and fan sub-batches out to this replica's schedulers.

        Idempotent per epoch: Paxos may (rarely) deliver a batch that a
        deposed-and-re-elected leader also re-proposed; only the first
        delivery counts.
        """
        if epoch in self._dispatched_epochs:
            return
        self._dispatched_epochs.add(epoch)
        origin = self.node_id.partition
        self.input_log.append(LogEntry(epoch, origin, txns))
        self.batches_dispatched += 1
        if self._tracing:
            published = self.tracer.peek_mark(("publish", origin, epoch))
            if published is not None:
                # Publish -> dispatchable here: Paxos agreement, the
                # async WAN ship, or the input-log force (mode "none").
                self.tracer.record(
                    SpanKind.REPLICATE,
                    published,
                    self.sim.now,
                    cat=CAT_EPOCH,
                    replica=self.node_id.replica,
                    partition=origin,
                    detail=epoch,
                )
            self.tracer.mark(
                ("dispatch", self.node_id.replica, origin, epoch), self.sim.now
            )

        sequenced, per_partition = self._sequenced(epoch, txns)
        if self.batch_observer is not None:
            self.batch_observer(epoch, sequenced)

        # Sequencer CPU: batch assembly/serialization delay. The sends
        # are owned by the node so a crash freezes (not loses) them.
        # Bulk insert: one fan-out, consecutive sequence numbers.
        delay = len(txns) * self.config.costs.sequencer_cpu_per_txn
        replica = self.node_id.replica
        calls = []
        for partition in self.catalog.hosted_partitions(replica):
            message = SubBatch(epoch, origin, per_partition[partition])
            address = node_address(NodeId(replica, partition))
            calls.append((self.send, (address, message, message.size_estimate())))
        if self.catalog.partial and replica == 0:
            # Partial replication: a peer replica not hosting this origin
            # partition has no sequencer in origin's Paxos group, so it
            # never sees this batch — replica 0's origin sequencer ships
            # the per-partition slices to every scheduler the peer *does*
            # host. Empty slices included: the epoch barrier counts one
            # SubBatch per origin per epoch.
            for peer in range(1, self.catalog.num_replicas):
                if self.catalog.is_hosted(peer, origin):
                    continue  # the peer's own (peer, origin) node dispatches
                for partition in self.catalog.hosted_partitions(peer):
                    message = SubBatch(epoch, origin, per_partition[partition])
                    address = node_address(NodeId(peer, partition))
                    calls.append(
                        (self.send, (address, message, message.size_estimate()))
                    )
        self.sim.schedule_many(self._owner, delay, calls)

    def _sequenced(self, epoch: int, txns: Tuple[Transaction, ...]):
        """The batch as :class:`SequencedTxn` records, and their
        per-partition sub-batch tuples, resolved once per cluster.

        The first replica to dispatch ``(epoch, origin)`` resolves the
        batch; every other replica that dispatches *the same batch
        object* reuses the result, and the last expected dispatcher
        drops it from the share. A batch that is merely equal (what a
        diverging replica would dispatch) is resolved afresh, so the
        share never masks a divergence. An empty batch, the common
        case at low load, has nothing to resolve and is not shared.
        """
        if self._dispatchers == 1 or not txns:
            return self._resolve(epoch, txns)
        key = (epoch, self.node_id.partition)
        share = self._batch_share.get(key)
        if share is None:
            resolved = self._resolve(epoch, txns)
            share = self._batch_share[key] = [txns, resolved, self._dispatchers]
        elif share[0] is txns:
            resolved = share[1]
        else:
            resolved = self._resolve(epoch, txns)
        share[2] -= 1
        if not share[2]:
            del self._batch_share[key]
        return resolved

    def _resolve(self, epoch: int, txns: Tuple[Transaction, ...]):
        origin = self.node_id.partition
        route = self.catalog.route
        sequenced: List[SequencedTxn] = []
        per_partition: List[List[SequencedTxn]] = [
            [] for _ in range(self.catalog.num_partitions)
        ]
        for index, txn in enumerate(txns):
            txn_route = route(txn, epoch)
            stxn = new_sequenced(((epoch, origin, index), txn, txn_route))
            sequenced.append(stxn)
            for partition in txn_route.participants:
                per_partition[partition].append(stxn)
        return sequenced, [tuple(stxns) for stxns in per_partition]

    def resend_to(self, partition: int, from_epoch: int = 0) -> int:
        """Re-fan-out logged batches to one scheduler of this replica.

        Recovery hook (paper Section 2: a rejoining node is brought up to
        date from a peer's input log): re-derives the per-partition
        sub-batches of every logged epoch ``>= from_epoch`` — routes
        included, recomputed from the logged transactions — and re-sends
        them to ``partition``'s scheduler, whose intake is idempotent.
        Returns the number of sub-batches re-sent.
        """
        resent = 0
        origin = self.node_id.partition
        for entry in self.input_log.entries_from(from_epoch):
            _, per_partition = self._resolve(entry.epoch, entry.txns)
            message = SubBatch(entry.epoch, origin, per_partition[partition])
            target = NodeId(self.node_id.replica, partition)
            self.send(node_address(target), message, message.size_estimate())
            resent += 1
        return resent

    # -- replication plumbing ------------------------------------------------

    def handle_replica_batch(self, batch: ReplicaBatch) -> None:
        self.replication.handle_replica_batch(batch)

    def handle_paxos(self, src_member: int, message: Any) -> None:
        self.replication.handle_paxos(src_member, message)

    # -- observability --------------------------------------------------------

    def register_metrics(self, registry, prefix: str) -> None:
        """Expose this sequencer's tallies as gauges in ``registry``."""
        registry.gauge(f"{prefix}.seq.txns_sequenced", lambda: self.txns_sequenced)
        registry.gauge(f"{prefix}.seq.txns_deferred", lambda: self.txns_deferred)
        registry.gauge(f"{prefix}.seq.batches_dispatched", lambda: self.batches_dispatched)

    def peer_replica_nodes(self) -> List[NodeId]:
        """Same-partition nodes in the other replicas."""
        return [
            node
            for node in self.catalog.replicas_of_partition(self.node_id.partition)
            if node.replica != self.node_id.replica
        ]
