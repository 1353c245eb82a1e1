"""Unit tests for message types and their wire-size model."""

from repro.net.messages import (
    ClientSubmit,
    PrefetchRequest,
    RemoteRead,
    ReplicaBatch,
    SubBatch,
    TxnReply,
)
from repro.txn.result import TransactionResult, TxnStatus
from repro.txn.transaction import SequencedTxn, Transaction


def make_txn(txn_id=1):
    return Transaction.create(txn_id, "p", None, [("k", 0)], [("k", 0)])


class TestSizeEstimates:
    def test_client_submit(self):
        assert ClientSubmit(make_txn()).size_estimate() > 0

    def test_replica_batch_scales_with_txns(self):
        small = ReplicaBatch(0, 0, (make_txn(1),))
        large = ReplicaBatch(0, 0, tuple(make_txn(i) for i in range(10)))
        assert large.size_estimate() > small.size_estimate()

    def test_subbatch_scales(self):
        stxn = SequencedTxn((0, 0, 0), make_txn(), None)
        empty = SubBatch(0, 0, ())
        full = SubBatch(0, 0, (stxn,) * 5)
        assert full.size_estimate() > empty.size_estimate()
        assert empty.size_estimate() > 0  # headers still cost bytes

    def test_remote_read_scales_with_values(self):
        small = RemoteRead((0, 0, 0), 1, {("k", 0): 1})
        large = RemoteRead((0, 0, 0), 1, {("k", i): i for i in range(20)})
        assert large.size_estimate() > small.size_estimate()

    def test_prefetch_request(self):
        msg = PrefetchRequest((("arch", 0, 1), ("arch", 0, 2)))
        assert msg.size_estimate() > PrefetchRequest(()).size_estimate() - 48

    def test_txn_reply(self):
        result = TransactionResult(1, TxnStatus.COMMITTED)
        assert TxnReply(result).size_estimate() > 0
