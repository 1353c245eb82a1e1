"""Unit tests for Calvin's deterministic lock manager."""

import pytest

from repro.errors import SchedulerError
from repro.scheduler import DeterministicLockManager
from repro.txn.transaction import SequencedTxn, Transaction


def stxn(seq, txn_id=None):
    txn = Transaction.create(txn_id or seq[2] + 1, "p", None, [("k", 0)], [("k", 0)])
    return SequencedTxn(seq, txn, None)  # locks never read the route


@pytest.fixture
def manager():
    ready = []
    lm = DeterministicLockManager(ready.append)
    return lm, ready


class TestGrantRules:
    def test_uncontended_immediate(self, manager):
        lm, ready = manager
        t = stxn((0, 0, 0))
        assert lm.acquire(t, ["a"], ["b"]) is True
        assert ready == [t]
        assert lm.immediate_grants == 1

    def test_write_blocks_write(self, manager):
        lm, ready = manager
        first, second = stxn((0, 0, 0)), stxn((0, 0, 1))
        lm.acquire(first, [], ["k"])
        assert lm.acquire(second, [], ["k"]) is False
        assert ready == [first]
        lm.release(first)
        assert ready == [first, second]

    def test_readers_share(self, manager):
        lm, ready = manager
        readers = [stxn((0, 0, i)) for i in range(3)]
        for reader in readers:
            assert lm.acquire(reader, ["k"], []) is True
        assert ready == readers

    def test_writer_waits_for_readers(self, manager):
        lm, ready = manager
        r1, r2, w = stxn((0, 0, 0)), stxn((0, 0, 1)), stxn((0, 0, 2))
        lm.acquire(r1, ["k"], [])
        lm.acquire(r2, ["k"], [])
        assert lm.acquire(w, [], ["k"]) is False
        lm.release(r1)
        assert w not in ready
        lm.release(r2)
        assert ready[-1] is w

    def test_reader_behind_writer_waits(self, manager):
        lm, ready = manager
        w, r = stxn((0, 0, 0)), stxn((0, 0, 1))
        lm.acquire(w, [], ["k"])
        assert lm.acquire(r, ["k"], []) is False
        lm.release(w)
        assert r in ready

    def test_reader_prefix_granted_on_release(self, manager):
        lm, ready = manager
        w, r1, r2, w2 = (stxn((0, 0, i)) for i in range(4))
        lm.acquire(w, [], ["k"])
        lm.acquire(r1, ["k"], [])
        lm.acquire(r2, ["k"], [])
        lm.acquire(w2, [], ["k"])
        lm.release(w)
        assert r1 in ready and r2 in ready and w2 not in ready

    def test_read_write_same_key_single_write_lock(self, manager):
        lm, ready = manager
        t1, t2 = stxn((0, 0, 0)), stxn((0, 0, 1))
        lm.acquire(t1, ["k"], ["k"])
        assert lm.acquire(t2, ["k"], []) is False

    def test_multi_key_all_required(self, manager):
        lm, ready = manager
        holder = stxn((0, 0, 0))
        lm.acquire(holder, [], ["a"])
        waiter = stxn((0, 0, 1))
        assert lm.acquire(waiter, [], ["a", "b"]) is False
        lm.release(holder)
        assert waiter in ready


class TestDeterminismInvariants:
    def test_out_of_order_acquire_rejected(self, manager):
        lm, _ = manager
        lm.acquire(stxn((0, 1, 0)), ["k"], [])
        with pytest.raises(SchedulerError):
            lm.acquire(stxn((0, 0, 0)), ["k2"], [])

    def test_duplicate_seq_rejected(self, manager):
        lm, _ = manager
        lm.acquire(stxn((0, 0, 0)), ["k"], [])
        with pytest.raises(SchedulerError):
            lm.acquire(stxn((0, 0, 0)), ["k2"], [])

    def test_empty_lock_request_rejected(self, manager):
        lm, _ = manager
        with pytest.raises(SchedulerError):
            lm.acquire(stxn((0, 0, 0)), [], [])

    def test_release_unknown_rejected(self, manager):
        lm, _ = manager
        with pytest.raises(SchedulerError):
            lm.release(stxn((0, 0, 0)))

    def test_ready_in_sequence_order_after_release(self, manager):
        lm, ready = manager
        holder = stxn((0, 0, 0))
        lm.acquire(holder, [], ["a", "b"])
        later = stxn((0, 0, 1))
        lm.acquire(later, [], ["b"])
        earlier_epoch = stxn((1, 0, 0))
        lm.acquire(earlier_epoch, [], ["a"])
        ready.clear()
        lm.release(holder)
        assert ready == [later, earlier_epoch]

    def test_active_txn_accounting(self, manager):
        lm, _ = manager
        t = stxn((0, 0, 0))
        lm.acquire(t, ["a"], ["b"])
        assert lm.active_txns == 1
        assert lm.waiters_on("a") == 1
        lm.release(t)
        assert lm.active_txns == 0
        assert lm.waiters_on("a") == 0


class _CountingBacklinks(dict):
    """A holder's backlink table that counts how it is touched."""

    stores = 0
    walks = 0

    def __setitem__(self, key, value):
        type(self).stores += 1
        super().__setitem__(key, value)

    def __iter__(self):
        type(self).walks += 1
        return super().__iter__()

    def items(self):
        type(self).walks += 1
        return super().items()


class TestPromotionBehindAWideHolder:
    """A migration write-locks a whole key range (up to 11 000 keys);
    every later arrival on one of those keys promotes the holder's
    sole-holder marker to a queue and must repoint the holder's backlink
    without searching the holder's other locks."""

    HELD = 10_000
    ARRIVALS = 1_000

    def _wide_holder(self, lm):
        holder = stxn((0, 0, 0))
        keys = tuple(("k", i) for i in range(self.HELD))
        assert lm.acquire_plan(holder, keys, ()) is True
        return holder, keys

    def test_grants_and_release_order_unchanged(self, manager):
        lm, ready = manager
        holder, keys = self._wide_holder(lm)
        # Arrival i takes held key 7*i (WRITE on even i, READ on odd i),
        # plus key 7*i+1 as a second WRITE for every tenth arrival.
        arrivals = []
        for i in range(self.ARRIVALS):
            waiter = stxn((0, 1, i))
            writes = [keys[7 * i]] if i % 2 == 0 else []
            reads = [keys[7 * i]] if i % 2 else []
            if i % 10 == 0:
                writes.append(keys[7 * i + 1])
            assert lm.acquire(waiter, reads, writes) is False
            arrivals.append(waiter)
        assert ready == [holder]
        assert lm.queued_requests == self.HELD + self.ARRIVALS + self.ARRIVALS // 10
        # The holder's backlinks still walk its keys in acquisition
        # order, each one now the head of its queue or the marker.
        backlinks = lm._txns[holder.seq].requests
        assert list(backlinks) == list(keys)
        for i in range(self.ARRIVALS):
            assert lm._queues[keys[7 * i]].head is backlinks[keys[7 * i]]
        lm.release(holder)
        # One release unblocks every arrival, reported in sequence order.
        assert ready == [holder] + arrivals
        assert lm.immediate_grants == 1 and lm.grants == 1 + self.ARRIVALS
        for waiter in arrivals:
            lm.release(waiter)
        assert lm.queued_requests == 0 and lm.active_txns == 0

    def test_promotion_work_is_independent_of_the_holders_lock_count(self, manager):
        lm, _ready = manager
        holder, keys = self._wide_holder(lm)
        entry = lm._txns[holder.seq]
        entry.requests = _CountingBacklinks(entry.requests)
        for i in range(self.ARRIVALS):
            lm.acquire_plan(stxn((0, 1, i)), (keys[7 * i],), ())
        # One store per promotion, and the holder's table is never walked.
        assert _CountingBacklinks.stores == self.ARRIVALS
        assert _CountingBacklinks.walks == 0
