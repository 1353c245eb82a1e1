"""Unit tests for the key/value store."""

from repro.storage import KVStore
from repro.txn.context import DELETED


class TestCrud:
    def test_get_put(self):
        store = KVStore()
        store.put("k", 1)
        assert store.get("k") == 1
        assert "k" in store
        assert len(store) == 1

    def test_get_default(self):
        store = KVStore()
        assert store.get("missing") is None
        assert store.get("missing", 0) == 0

    def test_delete(self):
        store = KVStore()
        store.put("k", 1)
        assert store.delete("k") is True
        assert store.delete("k") is False
        assert "k" not in store

    def test_counters(self):
        store = KVStore()
        store.put("k", 1)
        store.get("k")
        store.get("k")
        assert store.reads == 2
        assert store.writes == 1

    def test_items_and_keys(self):
        store = KVStore()
        store.load_bulk({"a": 1, "b": 2})
        assert dict(store.items()) == {"a": 1, "b": 2}
        assert set(store.keys()) == {"a", "b"}

    def test_clear(self):
        store = KVStore()
        store.put("k", 1)
        store.clear()
        assert len(store) == 0


class TestBulk:
    def test_apply_writes_puts_and_deletes(self):
        store = KVStore()
        store.load_bulk({"a": 1, "b": 2})
        store.apply_writes({"a": 10, "b": DELETED, "c": 3})
        assert store.snapshot() == {"a": 10, "c": 3}

    def test_load_bulk_bypasses_watchers(self):
        store = KVStore()
        seen = []
        store.add_watcher(lambda key, had, old: seen.append(key))
        store.load_bulk({"a": 1})
        assert seen == []

    def test_snapshot_is_a_copy(self):
        store = KVStore()
        store.put("k", 1)
        snapshot = store.snapshot()
        snapshot["k"] = 99
        assert store.get("k") == 1


class TestFingerprint:
    def test_insertion_order_independent(self):
        a, b = KVStore(), KVStore()
        a.put("x", 1)
        a.put("y", 2)
        b.put("y", 2)
        b.put("x", 1)
        assert a.fingerprint() == b.fingerprint()

    def test_value_sensitive(self):
        a, b = KVStore(), KVStore()
        a.put("x", 1)
        b.put("x", 2)
        assert a.fingerprint() != b.fingerprint()

    def test_key_sensitive(self):
        a, b = KVStore(), KVStore()
        a.put("x", 1)
        b.put("y", 1)
        assert a.fingerprint() != b.fingerprint()

    def test_empty_is_zero(self):
        assert KVStore().fingerprint() == 0

    def test_swapped_values_differ(self):
        a, b = KVStore(), KVStore()
        a.load_bulk({("hot", 0, 1): 5, ("hot", 0, 2): 7})
        b.load_bulk({("hot", 0, 1): 7, ("hot", 0, 2): 5})
        assert a.fingerprint() != b.fingerprint()


class TestWatchers:
    def test_watcher_sees_preimage(self):
        store = KVStore()
        store.put("k", 1)
        seen = []
        store.add_watcher(lambda key, had, old: seen.append((key, had, old)))
        store.put("k", 2)
        assert seen == [("k", True, 1)]

    def test_watcher_on_insert(self):
        store = KVStore()
        seen = []
        store.add_watcher(lambda key, had, old: seen.append((key, had, old)))
        store.put("new", 5)
        assert seen == [("new", False, None)]

    def test_watcher_on_delete(self):
        store = KVStore()
        store.put("k", 3)
        seen = []
        store.add_watcher(lambda key, had, old: seen.append((key, had, old)))
        store.delete("k")
        assert seen == [("k", True, 3)]

    def test_remove_watcher(self):
        store = KVStore()
        seen = []
        watcher = lambda key, had, old: seen.append(key)  # noqa: E731
        store.add_watcher(watcher)
        store.remove_watcher(watcher)
        store.put("k", 1)
        assert seen == []
