"""Closed-loop benchmark clients.

Each client keeps exactly one transaction outstanding against its local
node (replica 0), matching how the paper saturates the system. Dependent
transactions go through OLLP reconnaissance before submission and are
re-reconnoitered and resubmitted when the execution-time recheck reports
a stale footprint.
"""

from __future__ import annotations

from typing import Any, Optional, TYPE_CHECKING

from repro.net.messages import ClientSubmit, TxnReply
from repro.partition.catalog import NodeId, client_address, node_address
from repro.txn.ollp import MAX_RESTARTS, reconnoiter
from repro.txn.result import TxnStatus
from repro.txn.transaction import Transaction
from repro.workloads.base import TxnSpec, Workload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.cluster import Cluster


def submit_spec(client: Any, spec: TxnSpec, restarts: int) -> Transaction:
    """Turn ``spec`` into a transaction and send it to ``client``'s origin.

    The one submit path under every client kind: dependent specs go
    through OLLP reconnaissance first; the caller records what is in
    flight.
    """
    cluster = client.cluster
    read_set, write_set, token = spec.read_set, spec.write_set, None
    if spec.dependent:
        procedure = cluster.registry.get(spec.procedure)
        footprint = reconnoiter(procedure, cluster.analytics_read, spec.args)
        read_set = (*footprint.read_set, *read_set)
        write_set = (*footprint.write_set, *write_set)
        token = footprint.token
    txn = Transaction.create(
        cluster.next_txn_id(),
        spec.procedure,
        spec.args,
        read_set,
        write_set,
        client.partition,
        client.address,
        spec.dependent,
        token,
        cluster.sim.now,
        restarts,
    )
    client.submitted += 1
    message = ClientSubmit(txn)
    cluster.network.send(client.address, client._target, message, message.size_estimate())
    return txn


class ClosedLoopClient:
    """One outstanding transaction at a time, zero think time by default."""

    def __init__(
        self,
        cluster: "Cluster",
        partition: int,
        index: int,
        workload: Workload,
        think_time: float = 0.0,
        max_txns: Optional[int] = None,
        retry_backoff: float = 0.0,
        max_restarts: int = MAX_RESTARTS,
    ):
        self.cluster = cluster
        self.partition = partition
        self.workload = workload
        self.think_time = think_time
        self.max_txns = max_txns
        self.retry_backoff = retry_backoff
        self.max_restarts = max_restarts
        self.address = client_address(0, index)
        self.rng = cluster.rngs.stream("client", index)
        self._target = node_address(NodeId(0, partition))
        self._inflight: Optional[TxnSpec] = None
        self._inflight_txn_id: Optional[int] = None
        self._restarts = 0
        self.stale_replies = 0
        self.submitted = 0
        self.completed = 0
        self.rejected = 0
        self._pending_resubmits = 0
        cluster.network.register(self.address, self._on_message)

    def start(self) -> None:
        self._submit_new()

    def redirect(self, partition: int) -> None:
        """Re-home this client onto another origin partition.

        Scheduled by the control plane when this client's origin leaves
        the cluster; the next submission targets the new origin.
        """
        self.partition = partition
        self._target = node_address(NodeId(0, partition))

    @property
    def idle(self) -> bool:
        """True when nothing is outstanding and no resubmission is due."""
        return (
            self._inflight is None
            and self._pending_resubmits == 0
            and self.finished
        )

    @property
    def finished(self) -> bool:
        return self.max_txns is not None and self.completed >= self.max_txns

    # -- submission ---------------------------------------------------------

    def _submit_new(self) -> None:
        if self.finished:
            return
        spec = self.workload.generate(self.rng, self.partition, self.cluster.catalog)
        self._restarts = 0
        self._submit(spec)

    def _submit(self, spec: TxnSpec) -> None:
        txn = submit_spec(self, spec, self._restarts)
        self._inflight = spec
        self._inflight_txn_id = txn.txn_id

    def _resubmit_rejected(self, spec: TxnSpec) -> None:
        self._pending_resubmits -= 1
        self._submit(spec)

    # -- replies --------------------------------------------------------------

    def _on_message(self, src: Any, message: Any) -> None:
        assert isinstance(message, TxnReply), f"client got {message!r}"
        result = message.result
        if result.txn_id != self._inflight_txn_id:
            # Duplicate or reordered reply from a faulty network for a
            # request this closed-loop client already accounted for.
            self.stale_replies += 1
            return
        cluster = self.cluster
        now = cluster.sim.now
        if result.status is TxnStatus.REJECTED:
            # Admission control refused the request before sequencing.
            # Resubmit the same spec (fresh txn id — the sequencer's
            # dedupe set already saw the old one) after the retry-after
            # hint, or after one epoch for a plain shed, so a throttled
            # closed-loop client stays live without spinning.
            self.rejected += 1
            spec = self._inflight
            self._inflight = None
            self._inflight_txn_id = None
            delay = result.retry_after or cluster.config.epoch_duration
            self._pending_resubmits += 1
            cluster.sim.schedule(delay, self._resubmit_rejected, spec)
            return
        if now >= cluster.metrics.window_start:
            cluster.metrics.record_latency(result.latency)
        spec = self._inflight
        self._inflight = None
        self._inflight_txn_id = None
        self.completed += 1

        if (
            result.status is TxnStatus.RESTART
            and spec is not None
            and self._restarts < self.max_restarts
        ):
            # Stale OLLP footprint (Calvin) or wait-die death (baseline):
            # resubmit, optionally after a backoff.
            self._restarts += 1
            if self.retry_backoff > 0:
                cluster.sim.schedule(self.retry_backoff, self._submit, spec)
            else:
                self._submit(spec)
            return
        if self.think_time > 0:
            cluster.sim.schedule(self.think_time, self._submit_new)
        else:
            self._submit_new()
