"""One node of the baseline System R*-style distributed database.

Every node can act as *coordinator* (for transactions submitted by its
local clients) and as *participant* (for any transaction touching its
partition). The execution protocol per transaction:

1. coordinator sends ``ExecRequest`` to every participant (itself via
   loopback);
2. each participant acquires its local locks under wait-die 2PL, reads
   its local read-set values and replies (locks stay held);
3. the coordinator runs the procedure logic;
4. single-partition: one forced commit record, apply, release.
   Distributed: two-phase commit — prepare (participants force-log the
   writes, vote), coordinator forces the decision, participants apply
   and release on the decision message.

Wait-die deaths surface to the client as ``RESTART``; the client retries
with a fresh (younger) timestamp after a backoff.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Set, TYPE_CHECKING, Tuple

from repro.baseline.locks import DIED, TwoPhaseLockTable
from repro.baseline.log import GroupCommitLog
from repro.baseline.messages import (
    Decision,
    ExecReply,
    ExecRequest,
    PrepareRequest,
    PrepareVote,
)
from repro.config import ClusterConfig
from repro.errors import ConfigError, NetworkError
from repro.net.messages import ClientSubmit, TxnReply
from repro.obs import NULL_RECORDER, SpanKind, TraceRecorder
from repro.partition.catalog import Catalog, NodeId, node_address
from repro.scheduler.lockmanager import LockMode
from repro.sim.events import Event
from repro.sim.resources import Resource
from repro.storage.kvstore import KVStore
from repro.txn.context import TxnContext
from repro.txn.ollp import run_logic
from repro.txn.procedures import ProcedureRegistry
from repro.txn.result import TransactionResult, TxnStatus
from repro.txn.transaction import Transaction

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Simulator
    from repro.sim.network import Network

CompletionHook = Callable[[Transaction, TransactionResult], None]


class _CoordState:
    """Coordinator-side bookkeeping for one in-flight transaction."""

    __slots__ = ("txn", "participants", "replies", "votes", "waiter")

    def __init__(self, txn: Transaction, participants: Set[int]):
        self.txn = txn
        self.participants = participants
        self.replies: Dict[int, ExecReply] = {}
        self.votes: Set[int] = set()
        self.waiter: Optional[Event] = None


class BaselineNode:
    """Coordinator + participant + storage for one partition."""

    def __init__(
        self,
        sim: "Simulator",
        network: "Network",
        partition: int,
        catalog: Catalog,
        config: ClusterConfig,
        registry: ProcedureRegistry,
        on_complete: Optional[CompletionHook] = None,
        tracer: TraceRecorder = NULL_RECORDER,
    ):
        self.sim = sim
        self.network = network
        self.partition = partition
        self.catalog = catalog
        self.config = config
        self.registry = registry
        self.on_complete = on_complete
        self.tracer = tracer
        self.address = node_address(NodeId(0, partition))

        self.store = KVStore(partition)
        self.locks = TwoPhaseLockTable(sim)
        self.log = GroupCommitLog(sim, config.costs.log_force_latency)
        self.workers = Resource(sim, config.workers_per_node, name=f"bworkers{partition}")

        self._coord: Dict[int, _CoordState] = {}
        # Participant-side pending writes awaiting a 2PC decision.
        self._prepared: Dict[int, Dict] = {}
        self.committed = 0
        self.aborted = 0
        self.deaths = 0

        network.register(self.address, self.handle_message)

    # -- plumbing ----------------------------------------------------------

    def send(self, partition: int, message: Any) -> None:
        size = message.size_estimate() if hasattr(message, "size_estimate") else 128
        self.network.send(self.address, node_address(NodeId(0, partition)), message, size)

    def handle_message(self, src: Any, message: Any) -> None:
        if isinstance(message, ClientSubmit):
            self.sim.process(self._coordinate(message.txn))
        elif isinstance(message, ExecRequest):
            self.sim.process(self._participant_exec(message))
        elif isinstance(message, ExecReply):
            self._coord_input(message.txn_id, lambda s: s.replies.__setitem__(
                message.from_partition, message))
        elif isinstance(message, PrepareRequest):
            self.sim.process(self._participant_prepare(message))
        elif isinstance(message, PrepareVote):
            self._coord_input(message.txn_id, lambda s: s.votes.add(message.from_partition))
        elif isinstance(message, Decision):
            self.sim.process(self._participant_decide(message))
        else:
            raise NetworkError(f"unhandled baseline message: {message!r}")

    def _coord_input(self, txn_id: int, mutate) -> None:
        state = self._coord.get(txn_id)
        if state is None:
            return
        mutate(state)
        if state.waiter is not None and not state.waiter.triggered:
            state.waiter.succeed()

    def _wait_for(self, state: _CoordState, done: Callable[[], bool]):
        while not done():
            state.waiter = Event(self.sim)
            yield state.waiter
        state.waiter = None

    def _span(self, kind: SpanKind, start: float, txn_id: int, detail=None) -> None:
        if self.tracer.enabled:
            self.tracer.record(
                kind, start, self.sim.now,
                replica=0, partition=self.partition, txn_id=txn_id, detail=detail,
            )

    # -- coordinator ------------------------------------------------------------

    def _coordinate(self, txn: Transaction):
        if txn.dependent:
            # The baseline executes strictly from the declared footprint
            # and has no recheck hook; a stale OLLP footprint would be
            # applied silently. A real 2PL system would instead acquire
            # locks as it reads — out of scope for the comparison system.
            raise ConfigError(
                "the 2PC baseline does not support dependent (OLLP) "
                f"transactions (got {txn.procedure!r})"
            )
        costs = self.config.costs
        # The baseline has no epochs and its catalog is never re-sharded.
        route = self.catalog.route(txn, 0)
        participants = route.participants
        state = _CoordState(txn, participants)
        self._coord[txn.txn_id] = state

        for partition in sorted(participants):
            read_keys, write_keys, _ = route[partition]
            self.send(
                partition,
                ExecRequest(txn.txn_id, txn.txn_id, self.partition, read_keys, write_keys),
            )

        # The coordinator's wait for participant read results is the
        # baseline's analogue of Calvin's remote-read collection phase.
        wait_start = self.sim.now
        yield from self._wait_for(state, lambda: len(state.replies) == len(participants))
        self._span(SpanKind.REMOTE_READ_WAIT, wait_start, txn.txn_id, detail="exec-replies")

        ok_partitions = [p for p, reply in state.replies.items() if reply.ok]
        if len(ok_partitions) < len(participants):
            # Wait-die death somewhere: abort the survivors, tell the
            # client to retry with a fresh timestamp.
            for partition in ok_partitions:
                self.send(partition, Decision(txn.txn_id, commit=False))
            self.deaths += 1
            self._finish(state, TxnStatus.RESTART, None)
            return

        reads: Dict = {}
        for reply in state.replies.values():
            reads.update(reply.values)

        # Run the procedure logic on a local worker.
        exec_start = self.sim.now
        yield self.workers
        procedure = self.registry.get(txn.procedure)
        cpu = costs.txn_base_cpu + procedure.logic_cpu
        if len(participants) > 1:
            cpu += costs.multipartition_overhead_cpu
            cpu += costs.remote_read_serve_cpu * (len(participants) - 1)
        context = TxnContext(txn, reads)
        status, value = run_logic(procedure, context)
        yield cpu
        self.workers.release()
        self._span(SpanKind.EXECUTE, exec_start, txn.txn_id, detail="coordinator")

        if status is not TxnStatus.COMMITTED:
            for partition in sorted(participants):
                self.send(partition, Decision(txn.txn_id, commit=False))
            self._finish(state, status, value)
            return

        writes_by_partition = route.split_writes(context.writes)

        if len(participants) == 1:
            # Local commit: one forced commit record, then apply/release.
            force_start = self.sim.now
            yield self.log.force()
            self._span(SpanKind.DISK, force_start, txn.txn_id, detail="log-force")
            self._prepared[txn.txn_id] = writes_by_partition.get(self.partition, {})
            self.send(self.partition, Decision(txn.txn_id, commit=True))
            self._finish(state, TxnStatus.COMMITTED, value)
            return

        # Two-phase commit. The prepare round is the baseline's input
        # durability step — the analogue of Calvin's batch replication.
        prepare_start = self.sim.now
        for partition in sorted(participants):
            self.send(
                partition,
                PrepareRequest(
                    txn.txn_id, self.partition, writes_by_partition.get(partition, {})
                ),
            )
        yield from self._wait_for(state, lambda: len(state.votes) == len(participants))
        self._span(SpanKind.REPLICATE, prepare_start, txn.txn_id, detail="2pc-prepare")
        force_start = self.sim.now
        yield self.log.force()  # the forced decision record
        self._span(SpanKind.DISK, force_start, txn.txn_id, detail="log-force")
        for partition in sorted(participants):
            self.send(partition, Decision(txn.txn_id, commit=True))
        self._finish(state, TxnStatus.COMMITTED, value)

    def _finish(self, state: _CoordState, status: TxnStatus, value: Any) -> None:
        txn = state.txn
        del self._coord[txn.txn_id]
        result = TransactionResult(
            txn.txn_id, status, value, txn.submit_time, self.sim.now, txn.restarts
        )
        if status is TxnStatus.COMMITTED:
            self.committed += 1
        elif status is TxnStatus.ABORTED:
            self.aborted += 1
        if self.on_complete is not None:
            self.on_complete(txn, result)
        if txn.client is not None:
            reply = TxnReply(result)
            self.network.send(self.address, txn.client, reply, reply.size_estimate())

    # -- participant ---------------------------------------------------------------

    def _participant_exec(self, request: ExecRequest):
        costs = self.config.costs
        ts = request.ts
        write_set = set(request.write_keys)
        # Locks are taken one at a time, in repr order: the order decides
        # who waits and who dies, so it must not follow hash order.
        requests: List[Tuple[Any, LockMode]] = [
            (key, LockMode.WRITE) for key in sorted(write_set, key=repr)
        ]
        requests += [
            (key, LockMode.READ)
            for key in sorted(set(request.read_keys) - write_set, key=repr)
        ]
        lock_start = self.sim.now
        for key, mode in requests:
            outcome = yield self.locks.acquire(ts, key, mode)
            if outcome is DIED:
                self.locks.release_all(ts)
                self._span(SpanKind.LOCK_WAIT, lock_start, request.txn_id, detail="died")
                self.send(
                    request.coordinator_partition,
                    ExecReply(request.txn_id, self.partition, ok=False, values={}),
                )
                return
        self._span(SpanKind.LOCK_WAIT, lock_start, request.txn_id)

        # All local locks held: read local values on a worker.
        exec_start = self.sim.now
        yield self.workers
        cpu = (
            costs.lock_request_cpu * len(requests)
            + costs.read_cpu * len(request.read_keys)
        )
        if request.coordinator_partition != self.partition:
            cpu += costs.multipartition_overhead_cpu / 2
        values = {key: self.store.get(key) for key in request.read_keys}
        yield max(cpu, 1e-9)
        self.workers.release()
        self._span(SpanKind.EXECUTE, exec_start, request.txn_id, detail="participant")
        self.send(
            request.coordinator_partition,
            ExecReply(request.txn_id, self.partition, ok=True, values=values),
        )

    def _participant_prepare(self, request: PrepareRequest):
        self._prepared[request.txn_id] = request.writes
        force_start = self.sim.now
        yield self.log.force()
        self._span(SpanKind.DISK, force_start, request.txn_id, detail="log-force")
        self.send(request.coordinator_partition, PrepareVote(request.txn_id, self.partition))

    def _participant_decide(self, decision: Decision):
        writes = self._prepared.pop(decision.txn_id, None)
        if decision.commit and writes:
            apply_start = self.sim.now
            yield self.workers
            yield max(self.config.costs.write_cpu * len(writes), 1e-9)
            self.store.apply_writes(writes)
            self.workers.release()
            self._span(SpanKind.APPLY, apply_start, decision.txn_id)
        self.locks.release_all(decision.txn_id)

    def register_metrics(self, registry, prefix: str) -> None:
        """Expose node tallies as gauges in ``registry``."""
        registry.gauge(f"{prefix}.committed", lambda: self.committed)
        registry.gauge(f"{prefix}.aborted", lambda: self.aborted)
        registry.gauge(f"{prefix}.deaths", lambda: self.deaths)
