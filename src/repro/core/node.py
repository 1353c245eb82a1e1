"""One Calvin node: sequencer + scheduler + storage on a network address.

The node is the message router (paper Figure 1: all three components
share a machine) and the host of checkpoint orchestration for its
partition.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Optional, TYPE_CHECKING

from repro.config import ClusterConfig
from repro.core.traffic import AdmissionController
from repro.errors import NetworkError, StorageError
from repro.net.messages import (
    ClientSubmit,
    PrefetchRequest,
    ReadOnlyQuery,
    ReadOnlyReply,
    RemoteRead,
    ReplicaBatch,
    SubBatch,
    TxnReply,
    WriteSetApply,
)
from repro.obs import CAT_NODE, NULL_RECORDER, SpanKind, TraceRecorder
from repro.partition.catalog import Catalog, NodeId, node_address
from repro.paxos.messages import Accept, Accepted, Learn, Nack, Prepare, Promise
from repro.scheduler.executor import OutcomeShare
from repro.scheduler.scheduler import Scheduler
from repro.sequencer.replication import (
    AsyncReplication,
    NoReplication,
    PaxosReplication,
)
from repro.sequencer.sequencer import BatchShare, Sequencer
from repro.sim.events import Event
from repro.storage.checkpoint import (
    CheckpointSnapshot,
    NaiveCheckpointer,
    ZigZagCheckpointer,
)
from repro.storage.engine import StorageEngine
from repro.storage.inputlog import InputLog
from repro.txn.procedures import ProcedureRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Simulator
    from repro.sim.network import Network
    from repro.sim.rng import RngStreams

_PAXOS_MESSAGES = (Prepare, Promise, Accept, Accepted, Nack, Learn)
# Records serialized per background checkpoint slice (zigzag mode).
# Each slice waits its turn for a worker slot, so under saturation the
# inter-slice gap is a full queue drain; slices must be large enough
# that the dump outruns the store's growth and finishes promptly.
_CHECKPOINT_SLICE = 4096


class CalvinNode:
    """A full Calvin server: one partition of one replica."""

    # The scheduler implementation this node type wires in. Engine
    # subclasses (e.g. STAR's node) override it; the class must accept
    # the same constructor signature as :class:`Scheduler`.
    scheduler_class = Scheduler

    def __init__(
        self,
        sim: "Simulator",
        network: "Network",
        node_id: NodeId,
        catalog: Catalog,
        config: ClusterConfig,
        registry: ProcedureRegistry,
        rngs: "RngStreams",
        batch_share: BatchShare,
        outcomes: OutcomeShare,
        cold_predicate=None,
        on_complete: Optional[Callable] = None,
        record_trace: bool = False,
        tracer: TraceRecorder = NULL_RECORDER,
    ):
        self.sim = sim
        self.network = network
        self.node_id = node_id
        self.catalog = catalog
        self.config = config
        self.tracer = tracer
        self.address = node_address(node_id)
        # Before the components: Paxos leader election sends during
        # sequencer construction. Sends go straight to the network,
        # which parks them while the node is crashed.
        self.crashed = False
        self.send = partial(network.send, self.address)

        self.engine = StorageEngine(
            sim,
            node_id.partition,
            config.costs,
            rngs.stream("disk", node_id.replica, node_id.partition),
            disk_enabled=config.disk_enabled,
            cold_predicate=cold_predicate,
            tracer=tracer,
            replica=node_id.replica,
        )
        self.input_log = InputLog()
        self.scheduler = self.scheduler_class(
            sim,
            node_id,
            catalog,
            config,
            registry,
            self.engine,
            outcomes,
            send=self.send,
            on_complete=on_complete,
            record_trace=record_trace,
            tracer=tracer,
        )
        self.sequencer = Sequencer(
            sim,
            node_id,
            catalog,
            config,
            send=self.send,
            input_log=self.input_log,
            engine=self.engine,
            replication=self._make_replication(),
            batch_share=batch_share,
            tracer=tracer,
        )
        if config.admission_policy != "none" and self.sequencer.accepts_input:
            self.sequencer.admission = AdmissionController(
                sim, node_id, config, self.sequencer, self.send
            )
        network.register(self.address, self.handle_message)
        self._checkpointing = False

    def _make_replication(self):
        mode = self.config.replication_mode
        if mode == "none":
            return NoReplication()
        if mode == "async":
            return AsyncReplication()
        if mode == "paxos":
            return PaxosReplication()
        raise NetworkError(f"unknown replication mode {mode!r}")

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        self.sequencer.start()

    def crash(self) -> None:
        """Fail-stop: deaf (address unregistered, traffic to it dropped)
        and frozen (owner-tagged timers park in the kernel until restart).

        Sends attempted while crashed are *parked* by the network
        (:meth:`Network.hold <repro.sim.network.Network.hold>`), not
        dropped, and re-sent in order at restart.
        """
        if self.crashed:
            return
        self.crashed = True
        self.network.unregister(self.address)
        self.network.hold(self.address)
        self.sim.suspend_owner(self.address)

    def restart(self) -> None:
        """Rejoin the cluster: re-register, thaw parked timers, and have
        the network re-send the parked sends in order.

        State recovery (re-learning missed input-log entries and lost
        remote reads from healthy peers) is orchestrated by
        :meth:`repro.core.cluster.CalvinCluster.resync_node`.
        """
        if not self.crashed:
            return
        self.crashed = False
        self.network.register(self.address, self.handle_message)
        self.sim.resume_owner(self.address)
        self.network.release(self.address)

    @property
    def store(self):
        return self.engine.store

    @property
    def suppressed_sends(self) -> int:
        """Sends this node attempted while crashed (parked, then re-sent)."""
        return self.network.parked_sends.get(self.address, 0)

    # -- message routing ---------------------------------------------------------

    def handle_message(self, src: Any, message: Any) -> None:
        # Ordered by arrival frequency: one submit per transaction, then
        # remote reads (multipartition only), then per-epoch subbatches.
        if isinstance(message, ClientSubmit):
            self.sequencer.submit(message.txn)
        elif isinstance(message, RemoteRead):
            self.scheduler.receive_remote_read(message)
        elif isinstance(message, SubBatch):
            self.scheduler.receive_subbatch(message)
        elif isinstance(message, ReplicaBatch):
            self.sequencer.handle_replica_batch(message)
        elif isinstance(message, _PAXOS_MESSAGES):
            # src is a node address ("node", replica, partition); the
            # Paxos member id within a partition group is the replica.
            self.sequencer.handle_paxos(src[1], message)
        elif isinstance(message, PrefetchRequest):
            for key in message.keys:
                if self.engine.is_cold(key):
                    self.engine.fetch(key)
        elif isinstance(message, WriteSetApply):
            self.scheduler.receive_writeset(message)
        elif isinstance(message, ReadOnlyQuery):
            self.sim.process(self._serve_read_only(src, message))
        elif isinstance(message, TxnReply):  # pragma: no cover - defensive
            raise NetworkError(f"TxnReply misrouted to node {self.node_id}")
        else:
            raise NetworkError(f"unhandled message at {self.node_id}: {message!r}")

    def _serve_read_only(self, client: Any, query: ReadOnlyQuery):
        """Serve a replica-local read-only query from the current local
        snapshot, outside the sequenced pipeline (no locks: Calvin's
        determinism makes any committed prefix a consistent snapshot).
        The reply carries the scheduler's epoch watermark so the client
        can bound its staleness.
        """
        costs = self.config.costs
        yield self.scheduler.workers
        yield costs.txn_base_cpu + costs.read_cpu * len(query.keys)
        values = {key: self.store.get(key) for key in query.keys}
        epoch = self.scheduler.next_epoch
        self.scheduler.workers.release()
        reply = ReadOnlyReply(query.query_id, self.node_id.partition, values, epoch)
        self.send(client, reply, reply.size_estimate())

    # -- checkpointing (Section 5) -------------------------------------------------

    def begin_checkpoint(self, mode: str, epoch: int) -> Event:
        """Checkpoint this partition at the epoch-``epoch`` boundary.

        Returns an event that triggers with the finished
        :class:`CheckpointSnapshot`. The scheduler is paused just before
        admitting epoch ``epoch``; once quiesced, the snapshot point is
        exactly "all transactions sequenced before ``epoch``".
        """
        if self._checkpointing:
            raise StorageError(f"{self.node_id}: checkpoint already in progress")
        if mode not in ("naive", "zigzag"):
            raise StorageError(f"unknown checkpoint mode {mode!r}")
        self._checkpointing = True
        done = Event(self.sim)
        quiesced = self.scheduler.pause_before_epoch(epoch)
        if mode == "naive":
            quiesced.add_callback(lambda _e: self._run_naive(epoch, done))
        else:
            quiesced.add_callback(lambda _e: self._run_zigzag(epoch, done))
        return done

    def _record_checkpoint_span(self, start: float, mode: str) -> None:
        if self.tracer.enabled:
            self.tracer.record(
                SpanKind.CHECKPOINT, start, self.sim.now,
                cat=CAT_NODE,
                replica=self.node_id.replica,
                partition=self.node_id.partition,
                detail=mode,
            )

    def _run_naive(self, epoch: int, done: Event) -> None:
        checkpointer = NaiveCheckpointer(self.store, self.node_id.partition)
        duration = checkpointer.dump_duration(self.config.costs.checkpoint_record_cpu)
        snapshot = checkpointer.capture(epoch, self.sim.now)
        # The node stays frozen for the whole dump, then resumes.
        self.sim.schedule(duration, self._finish_naive, snapshot, done)

    def _finish_naive(self, snapshot: CheckpointSnapshot, done: Event) -> None:
        snapshot.finished_at = self.sim.now
        self._record_checkpoint_span(snapshot.started_at, "naive")
        self.scheduler.resume()
        self._checkpointing = False
        done.succeed(snapshot)

    def _run_zigzag(self, epoch: int, done: Event) -> None:
        checkpointer = ZigZagCheckpointer(self.store, self.node_id.partition)
        checkpointer.begin(epoch, self.sim.now)
        self.scheduler.resume()  # processing continues during the dump
        self.sim.process(self._zigzag_dumper(checkpointer, done))

    def _zigzag_dumper(self, checkpointer: ZigZagCheckpointer, done: Event):
        record_cpu = self.config.costs.checkpoint_record_cpu
        dump_start = self.sim.now
        while checkpointer.pending:
            # The dumper competes with transaction execution for a
            # worker slot — this is the Figure 8 throughput dip.
            yield self.scheduler.workers
            emitted = checkpointer.dump_slice(_CHECKPOINT_SLICE)
            yield max(1e-9, emitted * record_cpu)
            self.scheduler.workers.release()
        snapshot = checkpointer.finish(self.sim.now)
        self._record_checkpoint_span(dump_start, "zigzag")
        self._checkpointing = False
        done.succeed(snapshot)
