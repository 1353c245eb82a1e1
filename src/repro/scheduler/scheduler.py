"""The per-node scheduler: epoch barrier, in-order admission, execution.

Admission models Calvin's single lock-manager thread: sub-batches from
all sequencers are interleaved into the global order, then a single
admission loop charges the lock-request CPU cost and queues lock
requests strictly in that order. Granted transactions execute on the
node's worker pool via :mod:`repro.scheduler.executor`.

The scheduler also implements the epoch-aligned pause used by
checkpointing: ``pause_before_epoch(E)`` stops admission just before
epoch ``E`` and triggers a quiesce event once every transaction of
epochs ``< E`` has finished locally, giving a transactionally consistent
cut of the global sequence.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Set, TYPE_CHECKING, Tuple

from repro.config import ClusterConfig
from repro.errors import SchedulerError
from repro.net.messages import RemoteRead, SubBatch, WriteSetApply
from repro.obs import CAT_EPOCH, NULL_RECORDER, SpanKind, TraceRecorder
from repro.partition.catalog import Catalog, NodeId, node_address, split_slice
from repro.partition.partitioner import stable_hash
from repro.scheduler.executor import OutcomeShare, run_transaction
from repro.scheduler.lockmanager import DeterministicLockManager
from repro.sim.events import Event
from repro.sim.process import Process
from repro.sim.resources import Resource
from repro.txn.procedures import ProcedureRegistry
from repro.txn.transaction import GlobalSeq, SequencedTxn

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Simulator
    from repro.storage.engine import StorageEngine

SendFn = Callable[[Any, Any, int], None]
CompletionHook = Callable[[SequencedTxn, Any], None]


# Shared shard-index tuple for the dominant single-shard fast path —
# avoids a fresh one-element list per admitted transaction.
_SOLE_SHARD = (0,)


class Scheduler:
    """One node's scheduler component."""

    def __init__(
        self,
        sim: "Simulator",
        node_id: NodeId,
        catalog: Catalog,
        config: ClusterConfig,
        registry: ProcedureRegistry,
        engine: "StorageEngine",
        outcomes: OutcomeShare,
        send: SendFn,
        on_complete: Optional[CompletionHook] = None,
        record_trace: bool = False,
        tracer: TraceRecorder = NULL_RECORDER,
    ):
        self.sim = sim
        self.tracer = tracer
        # Hoisted is-enabled flag: hot paths branch on a plain bool
        # instead of an attribute chain (the NullRecorder case pays one
        # local truth test and nothing else).
        self._tracing = tracer.enabled
        self.node_id = node_id
        self.catalog = catalog
        self.config = config
        self.registry = registry
        self.engine = engine
        # This replica's phase-5 outcome share (executor.OutcomeShare).
        self.outcomes = outcomes
        self.send = send
        self.on_complete = on_complete
        # Opt-in footprint auditor (repro.analysis.auditor); the cluster
        # attaches one to replica-0 schedulers when auditing is armed.
        self.auditor = None

        self.workers = Resource(sim, config.workers_per_node, name=f"workers{node_id}")
        # Lock-manager shards: keys hash onto shards, each shard is one
        # "lock manager thread" granting strictly in sequence order over
        # its keys. One shard (the default) is the paper's design: it
        # reports straight to _on_locks_ready and keeps no per-shard
        # bookkeeping.
        shards = config.lock_manager_shards
        on_ready = self._on_locks_ready if shards == 1 else self._on_shard_ready
        self._lock_shards = [DeterministicLockManager(on_ready) for _ in range(shards)]
        # Several shards only: seq -> number of shards still holding
        # ungranted locks, and seq -> shard indexes involved (for release).
        self._lock_pending: Dict[GlobalSeq, int] = {}
        self._txn_shards: Dict[GlobalSeq, List[int]] = {}

        # Epoch reassembly: epoch -> origin -> SubBatch.
        self._arrived: Dict[int, Dict[int, SubBatch]] = {}
        self._next_epoch = 0

        # In-order admission queue; distributed to per-shard admission
        # loops (each modeling one lock-manager thread's CPU).
        self._admission: Deque[SequencedTxn] = deque()
        self._shard_queues: List[Deque] = [
            deque() for _ in range(config.lock_manager_shards)
        ]
        self._shard_active = [False] * config.lock_manager_shards

        # Remote-read mailbox: seq -> {from_partition: values}.
        self._mailbox: Dict[GlobalSeq, Dict[int, Dict]] = {}
        self._mailbox_waiters: Dict[GlobalSeq, List[Event]] = {}
        # Writeset mailbox (partial replication): deterministic outcomes
        # shipped by replica 0 for transactions this replica cannot
        # re-execute because it does not host every participant (see
        # executor.apply_replicated). Arrivals may precede admission.
        self._writesets: Dict[GlobalSeq, WriteSetApply] = {}
        self._writeset_waiters: Dict[GlobalSeq, List[Event]] = {}
        # Fault-tolerance aid (enabled by the fault injector): remember
        # every served remote read and every finished seq, so a restarted
        # peer can be re-served reads that were lost while it was down.
        self.retain_remote_reads = False
        self._served_reads: Dict[GlobalSeq, Tuple[RemoteRead, Set[int]]] = {}
        self._finished_seqs: Set[GlobalSeq] = set()

        # Checkpoint pause machinery.
        self._pause_epoch: Optional[int] = None
        self._quiesce_event: Optional[Event] = None
        self.outstanding = 0

        # Statistics.
        self.admitted = 0
        self.completed = 0
        self.passive_completions = 0
        # Optional per-partition finish-order trace (seq per completion),
        # consumed by the conflict-order checker.
        self.execution_trace: Optional[List[GlobalSeq]] = [] if record_trace else None

    # -- sub-batch intake and epoch barrier --------------------------------

    def receive_subbatch(self, batch: SubBatch) -> None:
        if batch.epoch < self._next_epoch:
            # Already admitted this epoch: a retransmission from a
            # recovery resync (or a duplicating network). Ignore.
            return
        per_epoch = self._arrived.setdefault(batch.epoch, {})
        existing = per_epoch.get(batch.origin_partition)
        if existing is not None:
            if existing == batch:
                # Identical duplicate (lossy network or resync): idempotent.
                return
            raise SchedulerError(
                f"conflicting duplicate sub-batch epoch={batch.epoch} "
                f"origin={batch.origin_partition} at {self.node_id}"
            )
        per_epoch[batch.origin_partition] = batch
        if self._tracing:
            dispatched = self.tracer.peek_mark(
                ("dispatch", self.node_id.replica, batch.origin_partition, batch.epoch)
            )
            if dispatched is not None:
                # Sequencer dispatch -> arrival at this scheduler:
                # serialization delay plus the network hop.
                self.tracer.record(
                    SpanKind.DISPATCH,
                    dispatched,
                    self.sim.now,
                    cat=CAT_EPOCH,
                    replica=self.node_id.replica,
                    partition=self.node_id.partition,
                    detail=(batch.epoch, batch.origin_partition),
                )
        self._advance_epochs()

    def _advance_epochs(self) -> None:
        while True:
            if self._pause_epoch is not None and self._next_epoch >= self._pause_epoch:
                self._maybe_quiesced()  # idle: no finishing txn will check
                return
            per_epoch = self._arrived.get(self._next_epoch)
            # The barrier waits for exactly the origins active at this
            # epoch (a joining spare starts publishing at its join
            # epoch, a retiring origin's last batch is retire_epoch - 1).
            origins = self.catalog.origins_at(self._next_epoch)
            if per_epoch is None or any(o not in per_epoch for o in origins):
                return
            del self._arrived[self._next_epoch]
            for origin in origins:
                self._admission.extend(per_epoch[origin].txns)
            self._next_epoch += 1
            self._kick_admission()

    # -- admission (the lock-manager thread(s)) --------------------------

    def _kick_admission(self) -> None:
        # Distribute the in-order queue across shard admission loops.
        # Distribution itself is free; each shard loop charges the lock
        # CPU for its own keys, so shards lift the admission ceiling.
        admission = self._admission
        tracing = self._tracing
        mine = self.node_id.partition
        single_shard = len(self._lock_shards) == 1
        while admission:
            stxn = admission.popleft()
            if tracing:
                self.tracer.mark(("admit", self.node_id, stxn.seq), self.sim.now)
            local = stxn.route.get(mine)
            if local is None:
                raise SchedulerError(
                    f"{stxn.seq} dispatched to non-participant partition {mine}"
                )
            if single_shard:
                shards = _SOLE_SHARD
                requests = (local,)
            else:
                split = split_slice(local, self._shard_of)
                shards = sorted(split)
                requests = [split[index] for index in shards]
                self._lock_pending[stxn.seq] = len(shards)
                self._txn_shards[stxn.seq] = shards
            self.admitted += 1
            self.outstanding += 1
            for index, request in zip(shards, requests):
                self._shard_queues[index].append((stxn, request))
                if not self._shard_active[index]:
                    self._shard_active[index] = True
                    self.sim.process(self._shard_admission_loop(index))

    def _shard_of(self, key) -> int:
        if len(self._lock_shards) == 1:
            return 0
        return stable_hash(key) % len(self._lock_shards)

    def _shard_admission_loop(self, index: int):
        queue = self._shard_queues[index]
        shard = self._lock_shards[index]
        per_key_cpu = self.config.costs.lock_request_cpu
        while queue:
            stxn, (reads, writes, read_only) = queue.popleft()
            # Charged per requested key of the raw footprint: a key both
            # read and written counts twice.
            cost = per_key_cpu * (len(reads) + len(writes))
            if cost > 0:
                yield cost
            shard.acquire_plan(stxn, writes, read_only)
        self._shard_active[index] = False

    def _on_shard_ready(self, stxn: SequencedTxn) -> None:
        pending = self._lock_pending[stxn.seq] - 1
        self._lock_pending[stxn.seq] = pending
        if pending == 0:
            del self._lock_pending[stxn.seq]
            self._on_locks_ready(stxn)

    @property
    def next_epoch(self) -> int:
        """The first epoch not yet fully admitted (recovery watermark)."""
        return self._next_epoch

    @property
    def admission_backlog(self) -> int:
        """Transactions queued for lock admission (all shards)."""
        return len(self._admission) + sum(len(q) for q in self._shard_queues)

    def lock_occupancy(self) -> tuple:
        """``(active transactions, queued lock requests)`` over all shards.

        Walks every shard's lock table, so callers sampling it should do
        so on a fixed timer (e.g. per epoch), never per grant.
        """
        active = queued = 0
        for shard in self._lock_shards:
            active += shard.active_txns
            queued += shard.queued_requests
        return active, queued

    # -- execution -----------------------------------------------------------

    def _on_locks_ready(self, stxn: SequencedTxn) -> None:
        if self._tracing:
            admitted = self.tracer.take_mark(("admit", self.node_id, stxn.seq))
            if admitted is not None:
                # Admission -> last local lock granted: lock-manager CPU
                # plus queueing behind conflicting earlier transactions.
                self.tracer.record(
                    SpanKind.LOCK_WAIT,
                    admitted,
                    self.sim.now,
                    replica=self.node_id.replica,
                    partition=self.node_id.partition,
                    txn_id=stxn.txn.txn_id,
                    seq=stxn.seq,
                )
        self._start_execution(stxn)

    def _start_execution(self, stxn: SequencedTxn) -> None:
        """Run a fully-granted transaction. The seam engines override:
        the core engine executes locally; STAR routes multipartition
        transactions to its master node instead."""
        Process(self.sim, run_transaction(self, stxn))

    def finish_txn(self, stxn: SequencedTxn, result: Any, passive: bool) -> None:
        """Called by the executor once this node's work for ``stxn`` is done."""
        shards = self._lock_shards
        if len(shards) == 1:
            shards[0].release(stxn)
        else:
            for index in self._txn_shards.pop(stxn.seq):
                shards[index].release(stxn)
        if len(stxn.route) > 1:
            # Only a multipartition transaction is sent remote reads or
            # a writeset.
            self._mailbox.pop(stxn.seq, None)
            self._mailbox_waiters.pop(stxn.seq, None)
            self._writesets.pop(stxn.seq, None)
            self._writeset_waiters.pop(stxn.seq, None)
        if self.retain_remote_reads:
            self._finished_seqs.add(stxn.seq)
        self.completed += 1
        if self.execution_trace is not None:
            self.execution_trace.append(stxn.seq)
        if passive:
            self.passive_completions += 1
        self.outstanding -= 1
        # The hook fires only on the reply partition (result is None on
        # other active participants), so each transaction counts once
        # per replica.
        if result is not None and self.on_complete is not None:
            self.on_complete(stxn, result)
        if self._quiesce_event is not None:
            self._maybe_quiesced()

    # -- remote reads -----------------------------------------------------------

    def receive_remote_read(self, message: RemoteRead) -> None:
        if message.seq in self._finished_seqs:
            # Re-served read for a transaction this node already finished
            # (recovery retransmission); ignore.
            return
        entry = self._mailbox.setdefault(message.seq, {})
        entry[message.from_partition] = message.values
        waiters = self._mailbox_waiters.pop(message.seq, None)
        if waiters:
            for event in waiters:
                event.succeed()

    def record_served_read(self, message: RemoteRead, targets: Set[int]) -> None:
        """Executor hook: remember a served remote read for re-serving to
        a restarted peer (active only under fault injection)."""
        if self.retain_remote_reads:
            self._served_reads[message.seq] = (message, set(targets))

    def reserve_reads_to(self, peer_scheduler: "Scheduler") -> int:
        """Re-send retained remote reads a restarted peer may have lost.

        Skips transactions the peer has already finished; everything else
        is idempotent on the receiving side. Returns the re-send count.
        """
        resent = 0
        peer_partition = peer_scheduler.node_id.partition
        for seq in sorted(self._served_reads):
            message, targets = self._served_reads[seq]
            if peer_partition not in targets:
                continue
            if seq in peer_scheduler._finished_seqs:
                continue
            self.send(
                node_address(NodeId(self.node_id.replica, peer_partition)),
                message,
                message.size_estimate(),
            )
            resent += 1
        return resent

    def remote_reads_for(self, seq: GlobalSeq) -> Dict[int, Dict]:
        return self._mailbox.get(seq, {})

    def remote_read_arrival(self, seq: GlobalSeq) -> Event:
        """An event that triggers on the next remote-read arrival for ``seq``."""
        event = Event(self.sim)
        self._mailbox_waiters.setdefault(seq, []).append(event)
        return event

    # -- writesets (partial replication) -----------------------------------

    def receive_writeset(self, message: WriteSetApply) -> None:
        """Stash a shipped writeset; may arrive before the transaction is
        admitted locally (the mailbox bridges the gap)."""
        self._writesets[message.seq] = message
        waiters = self._writeset_waiters.pop(message.seq, None)
        if waiters:
            for event in waiters:
                event.succeed()

    def writeset_for(self, seq: GlobalSeq) -> Optional[WriteSetApply]:
        return self._writesets.get(seq)

    def writeset_arrival(self, seq: GlobalSeq) -> Event:
        """An event that triggers when the writeset for ``seq`` arrives."""
        event = Event(self.sim)
        self._writeset_waiters.setdefault(seq, []).append(event)
        return event

    def fast_forward(self, epoch: int) -> None:
        """Start the epoch barrier at ``epoch`` (recovery replay resumes
        mid-log). Only valid on a scheduler that has done no work yet."""
        if self.admitted or self._arrived or self._next_epoch:
            raise SchedulerError("fast_forward on a scheduler that already ran")
        self._next_epoch = epoch

    # -- checkpoint pause ---------------------------------------------------------

    def pause_before_epoch(self, epoch: int) -> Event:
        """Stop admitting epochs >= ``epoch``; returns a quiesce event that
        triggers once all locally admitted work has drained."""
        if self._pause_epoch is not None:
            raise SchedulerError("scheduler already paused")
        if epoch < self._next_epoch:
            raise SchedulerError(
                f"cannot pause before epoch {epoch}: already admitted "
                f"up to {self._next_epoch}"
            )
        self._pause_epoch = epoch
        self._quiesce_event = Event(self.sim)
        # Already quiesced? (empty queues, nothing running, epoch reached)
        self.sim.schedule(0.0, self._maybe_quiesced)
        return self._quiesce_event

    def resume(self) -> None:
        if self._pause_epoch is None:
            raise SchedulerError("resume of a scheduler that is not paused")
        self._pause_epoch = None
        self._quiesce_event = None
        self._advance_epochs()

    def _maybe_quiesced(self) -> None:
        if self._quiesce_event is None or self._quiesce_event.triggered:
            return
        barrier_reached = self._next_epoch >= (self._pause_epoch or 0)
        drained = self.admission_backlog == 0 and self.outstanding == 0
        # All sub-batches for pre-barrier epochs must also have arrived
        # and been admitted (none can be sitting in _arrived).
        no_stragglers = all(
            epoch >= (self._pause_epoch or 0) for epoch in self._arrived
        )
        if barrier_reached and drained and no_stragglers:
            self._quiesce_event.succeed(self._next_epoch)

    @property
    def paused(self) -> bool:
        return self._pause_epoch is not None

    @property
    def lock_grants(self) -> int:
        """Lock grants summed over every lock-manager shard."""
        return sum(shard.grants for shard in self._lock_shards)

    @property
    def immediate_lock_grants(self) -> int:
        """Transactions granted all their locks on arrival, every shard."""
        return sum(shard.immediate_grants for shard in self._lock_shards)

    # -- observability --------------------------------------------------------

    def register_metrics(self, registry, prefix: str) -> None:
        """Expose this scheduler's tallies as gauges in ``registry``."""
        registry.gauge(f"{prefix}.sched.admitted", lambda: self.admitted)
        registry.gauge(f"{prefix}.sched.completed", lambda: self.completed)
        registry.gauge(f"{prefix}.sched.outstanding", lambda: self.outstanding)
        registry.gauge(f"{prefix}.sched.backlog", lambda: self.admission_backlog)
        registry.gauge(f"{prefix}.locks.grants", lambda: self.lock_grants)
        registry.gauge(
            f"{prefix}.locks.immediate_grants", lambda: self.immediate_lock_grants
        )
