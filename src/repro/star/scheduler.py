"""STAR's per-node scheduler: Calvin admission, master-routed execution.

The scheduler inherits the entire deterministic pipeline — epoch
barrier, in-order lock admission, the lock manager — so STAR executes
*exactly* Calvin's agreed global order. The single override is what
happens once a transaction holds all its local locks:

* sole participant → execute locally (inherited), in any phase;
* multipartition   → tell the master this partition is ready
  (:class:`~repro.net.messages.StarReady`) and park the transaction,
  locks held, until the master's
  :class:`~repro.net.messages.StarRelease` comes back.

Because every participant grants locks in sequence order before
reporting ready, a transaction reaches the master's backlog only after
all earlier conflicting transactions released — which is what makes the
master's direct reads of the partition stores safe.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import SchedulerError
from repro.net.messages import StarReady, StarRelease, TxnReply
from repro.partition.catalog import NodeId, node_address
from repro.scheduler.scheduler import Scheduler
from repro.star.master import MASTER_PARTITION
from repro.txn.transaction import GlobalSeq, SequencedTxn


class StarScheduler(Scheduler):
    """One STAR node's scheduler component."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Multipartition transactions parked between "locks granted
        # here" and the master's release, by sequence number.
        self._star_waiting: Dict[GlobalSeq, SequencedTxn] = {}
        self.star_routed = 0

    def _start_execution(self, stxn: SequencedTxn) -> None:
        if len(stxn.route.participants) == 1:
            # Partitioned path: local deterministic execution, any phase.
            super()._start_execution(stxn)
            return
        self.star_routed += 1
        self._star_waiting[stxn.seq] = stxn
        master = node_address(NodeId(self.node_id.replica, MASTER_PARTITION))
        message = StarReady(stxn, self.node_id.partition)
        self.send(master, message, message.size_estimate())

    def complete_remote(self, message: StarRelease) -> None:
        """Master finished one of our parked transactions: release its
        locks and, on the reply partition, answer the client."""
        stxn = self._star_waiting.pop(message.seq, None)
        if stxn is None:
            raise SchedulerError(
                f"StarRelease for unknown seq {message.seq} at {self.node_id}"
            )
        txn = stxn.txn
        report = message.result if self.node_id.partition == stxn.route.reply else None
        if report is not None and txn.client is not None and self.node_id.replica == 0:
            reply = TxnReply(report)
            self.send(txn.client, reply, reply.size_estimate())
        self.finish_txn(stxn, report, passive=report is None)
