"""Unit tests for checkpointing mechanics (naive + zigzag COW)."""

import pytest

from repro.errors import StorageError
from repro.storage import KVStore, NaiveCheckpointer, ZigZagCheckpointer
from repro.storage.kvstore import fingerprint_data


def loaded_store(n=10):
    store = KVStore(partition=0)
    store.load_bulk({("k", i): i for i in range(n)})
    return store


class TestNaive:
    def test_capture_is_full_copy(self):
        store = loaded_store()
        snapshot = NaiveCheckpointer(store, 0).capture(epoch=5, now=1.0)
        assert snapshot.data == store.snapshot()
        assert snapshot.epoch == 5
        assert snapshot.mode == "naive"
        assert snapshot.record_count == 10

    def test_dump_duration_scales(self):
        store = loaded_store(100)
        checkpointer = NaiveCheckpointer(store, 0)
        assert checkpointer.dump_duration(1e-6) == pytest.approx(100e-6)


class TestZigZag:
    def test_untouched_store_snapshot(self):
        store = loaded_store()
        checkpointer = ZigZagCheckpointer(store, 0)
        checkpointer.begin(epoch=3, now=0.0)
        while checkpointer.pending:
            checkpointer.dump_slice(4)
        snapshot = checkpointer.finish(now=1.0)
        assert snapshot.data == store.snapshot()
        assert snapshot.epoch == 3

    def test_write_during_dump_preserves_stable_version(self):
        store = loaded_store(4)
        checkpointer = ZigZagCheckpointer(store, 0)
        checkpointer.begin(epoch=0, now=0.0)
        store.put(("k", 3), 999)  # mutate before the dumper reaches it
        while checkpointer.pending:
            checkpointer.dump_slice(1)
        snapshot = checkpointer.finish(now=0.0)
        assert snapshot.data[("k", 3)] == 3       # stable version
        assert store.get(("k", 3)) == 999          # live version intact

    def test_insert_during_dump_excluded(self):
        store = loaded_store(2)
        checkpointer = ZigZagCheckpointer(store, 0)
        checkpointer.begin(epoch=0, now=0.0)
        store.put(("new", 0), 1)
        while checkpointer.pending:
            checkpointer.dump_slice(1)
        snapshot = checkpointer.finish(now=0.0)
        assert ("new", 0) not in snapshot.data
        assert len(snapshot.data) == 2

    def test_delete_during_dump_preserved_in_snapshot(self):
        store = loaded_store(3)
        checkpointer = ZigZagCheckpointer(store, 0)
        checkpointer.begin(epoch=0, now=0.0)
        store.delete(("k", 2))
        while checkpointer.pending:
            checkpointer.dump_slice(1)
        snapshot = checkpointer.finish(now=0.0)
        assert snapshot.data[("k", 2)] == 2
        assert ("k", 2) not in store

    def test_multiple_writes_keep_first_preimage(self):
        store = loaded_store(2)
        checkpointer = ZigZagCheckpointer(store, 0)
        checkpointer.begin(epoch=0, now=0.0)
        store.put(("k", 1), 100)
        store.put(("k", 1), 200)
        while checkpointer.pending:
            checkpointer.dump_slice(1)
        snapshot = checkpointer.finish(now=0.0)
        assert snapshot.data[("k", 1)] == 1

    def test_watcher_detached_after_finish(self):
        store = loaded_store(2)
        checkpointer = ZigZagCheckpointer(store, 0)
        checkpointer.begin(epoch=0, now=0.0)
        checkpointer.dump_slice(100)
        checkpointer.finish(now=0.0)
        store.put(("k", 0), 5)  # must not blow up / keep COWing
        assert not checkpointer.active

    def test_double_begin_rejected(self):
        checkpointer = ZigZagCheckpointer(loaded_store(), 0)
        checkpointer.begin(0, 0.0)
        with pytest.raises(StorageError):
            checkpointer.begin(0, 0.0)

    def test_finish_with_pending_rejected(self):
        checkpointer = ZigZagCheckpointer(loaded_store(), 0)
        checkpointer.begin(0, 0.0)
        with pytest.raises(StorageError):
            checkpointer.finish(0.0)

    def test_dump_slice_without_begin_rejected(self):
        checkpointer = ZigZagCheckpointer(loaded_store(), 0)
        with pytest.raises(StorageError):
            checkpointer.dump_slice(1)


class TestRecoveryHelpers:
    def test_fingerprint_data_matches_store(self):
        store = loaded_store()
        assert fingerprint_data(store.snapshot()) == store.fingerprint()
