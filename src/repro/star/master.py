"""The STAR master: coordination-free multipartition execution.

The master node holds (conceptually) a full replica of the database —
modelled here as direct references to every partition's store — so a
multipartition transaction that reaches it runs like a single-node
transaction: read everything locally, run the logic once, apply writes
to every partition's store, no remote-read round trips, no 2PC, none of
Calvin's per-participant multipartition overhead. The price is that all
that work lands on one node's worker pool, and that execution waits for
a single-master phase.

A transaction enters the backlog once *every* participant has granted
its local locks (:class:`~repro.net.messages.StarReady` per
participant). Backlog transactions are pairwise non-conflicting — each
holds its full lock footprint — so draining them concurrently on the
worker pool is safe; the heap pop order keeps worker-queue entry in
sequence order regardless.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, List, Tuple, TYPE_CHECKING

from repro.net.messages import StarReady, StarRelease
from repro.obs import SpanKind
from repro.partition.catalog import NodeId, node_address
from repro.sim.events import Event
from repro.txn.context import TxnContext
from repro.txn.ollp import run_logic
from repro.txn.result import TransactionResult, TxnStatus
from repro.txn.transaction import GlobalSeq, SequencedTxn

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.star.node import StarNode

# The full-replica node that drains the multipartition backlog during
# single-master phases.
MASTER_PARTITION = 0
# Extra master-worker CPU per multipartition transaction (applying the
# master's writes back onto the partition replicas), seconds.
MASTER_TXN_OVERHEAD_CPU = 100e-6


class StarMaster:
    """Backlog + executor for multipartition transactions on one node."""

    def __init__(self, node: "StarNode", stores: Dict[int, Any]):
        self.node = node
        self.sim = node.sim
        self.config = node.config
        self.registry = node.scheduler.registry
        self.tracer = node.tracer
        # partition -> that partition's (replica-0) store: the master's
        # full-replica view of the database.
        self.stores = stores

        self._ready_counts: Dict[GlobalSeq, int] = {}
        self._backlog: List[Tuple[GlobalSeq, SequencedTxn]] = []
        self._gate_open = False
        self.in_flight = 0
        self._drained_waiters: List[Event] = []

        self.txns_executed = 0
        self.peak_backlog = 0

    # -- intake ------------------------------------------------------------

    def ready(self, message: StarReady) -> None:
        """One participant reports its local locks granted."""
        stxn = message.stxn
        seq = stxn.seq
        needed = len(stxn.route.participants)
        count = self._ready_counts.get(seq, 0) + 1
        if count < needed:
            self._ready_counts[seq] = count
            return
        self._ready_counts.pop(seq, None)
        heapq.heappush(self._backlog, (seq, stxn))
        if len(self._backlog) > self.peak_backlog:
            self.peak_backlog = len(self._backlog)
        if self._gate_open:
            self._drain()

    # -- phase gate (driven by the controller) -----------------------------

    def open_gate(self) -> None:
        self._gate_open = True
        self._drain()

    def close_gate(self) -> None:
        self._gate_open = False

    @property
    def backlog_depth(self) -> int:
        return len(self._backlog)

    @property
    def busy(self) -> bool:
        """Work pending: backlog entries or executions still in flight."""
        return bool(self._backlog) or self.in_flight > 0

    def drained_event(self) -> Event:
        """An event triggering the next time the master goes fully idle.

        Only call while :attr:`busy` — an idle master never fires it.
        """
        event = Event(self.sim)
        self._drained_waiters.append(event)
        return event

    def _drain(self) -> None:
        while self._backlog:
            _seq, stxn = heapq.heappop(self._backlog)
            self.in_flight += 1
            self.sim.process(self._execute(stxn))

    # -- execution ---------------------------------------------------------

    def _execute(self, stxn: SequencedTxn):
        """Run one multipartition transaction against the global view.

        Mirrors :func:`repro.scheduler.executor.run_transaction` minus
        everything distributed: no remote-read fan-out or wait, no
        per-participant multipartition overhead; instead one
        ``MASTER_TXN_OVERHEAD_CPU`` charge for pushing the writes
        back out to the partition replicas. Its context reports to the
        footprint auditor exactly as the executor's does.
        """
        sim = self.sim
        costs = self.config.costs
        txn = stxn.txn
        scheduler = self.node.scheduler
        granted_time = sim.now

        yield scheduler.workers.request()
        exec_start = sim.now

        route = stxn.route
        reads: Dict = {}
        for partition in sorted(route.read_holders):
            reads.update(self.stores[partition].get_many(route[partition][0]))
        yield costs.txn_base_cpu + costs.read_cpu * len(reads)

        if self.tracer.enabled:
            self.tracer.record(
                SpanKind.EXECUTE, exec_start, sim.now,
                replica=self.node.node_id.replica,
                partition=self.node.node_id.partition,
                txn_id=txn.txn_id, seq=stxn.seq, detail="star-master",
            )

        apply_start = sim.now
        procedure = self.registry.get(txn.procedure)
        auditor = scheduler.auditor
        context = TxnContext(txn, reads) if auditor is None else auditor.make_context(txn, reads)
        status, value = run_logic(procedure, context)

        cpu = (
            procedure.logic_cpu
            + costs.write_cpu * len(context.writes)
            + MASTER_TXN_OVERHEAD_CPU
        )
        if cpu > 0:
            yield cpu
        if status is TxnStatus.COMMITTED and context.writes:
            for partition, chunk in route.split_writes(context.writes).items():
                self.stores[partition].apply_writes(chunk, context.deleted)

        result = TransactionResult(
            txn.txn_id, status, value, txn.submit_time, sim.now, txn.restarts,
            granted_time,
        )
        if self.tracer.enabled:
            self.tracer.record(
                SpanKind.APPLY, apply_start, sim.now,
                replica=self.node.node_id.replica,
                partition=self.node.node_id.partition,
                txn_id=txn.txn_id, seq=stxn.seq, detail="star-master",
            )
        scheduler.workers.release()
        if auditor is not None:
            # The master's one execution is the transaction's report.
            auditor.observe(txn, context, status, True)

        # Release every participant (locks drop on arrival; the reply
        # partition answers the client from the riding result).
        release = StarRelease(stxn.seq, result)
        replica = self.node.node_id.replica
        for partition in sorted(route.participants):
            target = node_address(NodeId(replica, partition))
            self.node.send(target, release, release.size_estimate())

        self.txns_executed += 1
        self.in_flight -= 1
        if not self.busy and self._drained_waiters:
            waiters, self._drained_waiters = self._drained_waiters, []
            for event in waiters:
                event.succeed()
