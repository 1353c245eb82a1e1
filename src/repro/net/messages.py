"""Calvin-layer message types.

All messages are ``NamedTuple``s: read-only like the frozen dataclasses
they replaced, but built at the cost of one tuple, which matters for
records made per request, reply or participant (docs/performance.md,
"Record construction"). ``size_estimate`` feeds the network bandwidth
model; the constants approximate the paper's serialized request/record
sizes rather than Python object sizes.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, NamedTuple, Tuple

from repro.partition.partitioner import Key
from repro.txn.result import TransactionResult
from repro.txn.transaction import GlobalSeq, SequencedTxn, Transaction

_TXN_WIRE_SIZE = 256      # bytes per serialized transaction request
_RECORD_WIRE_SIZE = 120   # bytes per key/value pair in a remote read
_HEADER_SIZE = 64


class ClientSubmit(NamedTuple):
    """Client → sequencer: a new transaction request."""

    txn: Transaction

    def size_estimate(self) -> int:
        return _HEADER_SIZE + _TXN_WIRE_SIZE


class ReplicaBatch(NamedTuple):
    """Sequencer → peer-replica sequencer (async replication mode)."""

    epoch: int
    origin_partition: int
    txns: Tuple[Transaction, ...]

    def size_estimate(self) -> int:
        return _HEADER_SIZE + _TXN_WIRE_SIZE * len(self.txns)


class SubBatch(NamedTuple):
    """Sequencer → scheduler (same replica): this partition's view of a batch.

    Transactions arrive already bound to their global sequence number
    (epoch, origin, index-within-origin-batch). One SubBatch is sent to
    *every* scheduler each epoch, possibly with zero transactions —
    schedulers use the full set of sub-batches as the epoch barrier, so
    emptiness is information.
    """

    epoch: int
    origin_partition: int
    txns: Tuple[SequencedTxn, ...]

    def size_estimate(self) -> int:
        return _HEADER_SIZE + _TXN_WIRE_SIZE * len(self.txns)


class RemoteRead(NamedTuple):
    """Participant → active participant: local read results for one txn."""

    seq: GlobalSeq
    from_partition: int
    values: Dict[Key, Any]

    def size_estimate(self) -> int:
        return _HEADER_SIZE + _RECORD_WIRE_SIZE * max(1, len(self.values))


class PrefetchRequest(NamedTuple):
    """Sequencer → storage node: warm these cold keys up (Section 4).

    Sent as soon as a disk-bound transaction arrives, while the
    transaction itself is artificially deferred by the expected fetch
    latency, so that by execution time the data is memory resident.
    """

    keys: Tuple[Key, ...]

    def size_estimate(self) -> int:
        return _HEADER_SIZE + 24 * max(1, len(self.keys))


class StarReady(NamedTuple):
    """STAR participant → master: local locks granted for one
    multipartition transaction; it may run once every participant says so."""

    stxn: SequencedTxn
    from_partition: int

    def size_estimate(self) -> int:
        return _HEADER_SIZE + _TXN_WIRE_SIZE


class StarRelease(NamedTuple):
    """STAR master → participant: a multipartition transaction finished
    on the master; release its locks (the result rides along so the
    reply partition can answer the client)."""

    seq: GlobalSeq
    result: TransactionResult

    def size_estimate(self) -> int:
        return _HEADER_SIZE + 128


class WriteSetApply(NamedTuple):
    """Replica-0 active participant → peer-replica participant hosting
    the same partition (partial replication only): the deterministic
    outcome of a transaction the peer cannot re-execute because it does
    not host every participant. ``writes`` may carry DELETED sentinels;
    an aborted transaction ships ``committed=False`` so the peer's
    sequence slot still completes (deterministic abort)."""

    seq: GlobalSeq
    from_partition: int
    committed: bool
    writes: Dict[Key, Any]

    def size_estimate(self) -> int:
        return _HEADER_SIZE + _RECORD_WIRE_SIZE * max(1, len(self.writes))


class ReadOnlyQuery(NamedTuple):
    """Read-only client → replica node: serve these keys from the local
    snapshot, outside the sequenced pipeline (replica-local reads)."""

    query_id: int
    keys: Tuple[Key, ...]

    def size_estimate(self) -> int:
        return _HEADER_SIZE + 24 * max(1, len(self.keys))


class ReadOnlyReply(NamedTuple):
    """Replica node → read-only client: values plus the node's current
    epoch watermark (the client derives its staleness bound from the
    minimum watermark across per-partition replies)."""

    query_id: int
    from_partition: int
    values: Dict[Key, Any]
    epoch: int

    def size_estimate(self) -> int:
        return _HEADER_SIZE + _RECORD_WIRE_SIZE * max(1, len(self.values))


class TxnReply(NamedTuple):
    """Reply partition → client: terminal result of one attempt."""

    result: TransactionResult

    def size_estimate(self) -> int:
        return _HEADER_SIZE + 64


# Builders from a 1-tuple in one C call, e.g. ``new_reply((result,))``
# (docs/performance.md, "Record construction"); the sizes never vary.
new_submit = partial(tuple.__new__, ClientSubmit)
new_reply = partial(tuple.__new__, TxnReply)
SUBMIT_SIZE = ClientSubmit(None).size_estimate()
REPLY_SIZE = TxnReply(None).size_estimate()
