"""The per-partition key/value record store.

Plain CRUD with two extras the rest of the system needs:

- **write watchers** — checkpointers subscribe to observe the
  pre-image of every update (copy-on-write capture during an
  asynchronous checkpoint);
- **stable fingerprints** — replica-consistency checks compare stores
  produced by independent runs, so the fingerprint must not depend on
  process-specific hashing or insertion order.
"""

from __future__ import annotations

from hashlib import blake2b
from typing import Any, Callable, Dict, Iterable, Iterator, List, Tuple

from repro.partition.partitioner import Key
from repro.txn.context import DELETED

# watcher(key, had_value, old_value) is invoked *before* a mutation.
WriteWatcher = Callable[[Key, bool, Any], None]

_ABSENT = object()
_MASK64 = (1 << 64) - 1


def fingerprint_data(data: Dict[Key, Any]) -> int:
    """Order-independent, process-stable digest of a key -> value map.

    The sum mod 2**64 of one 8-byte BLAKE2b hash per ``(key, value)``
    entry. The entry hash must not be linear, as CRC32 is: under a
    linear hash, two maps that swap the values of two keys can fold to
    the same digest.
    """
    digest = 0
    for key, value in data.items():
        entry = blake2b(repr((key, value)).encode("utf-8"), digest_size=8).digest()
        digest += int.from_bytes(entry, "little")
    return digest & _MASK64


class KVStore:
    """In-memory record store for one partition."""

    def __init__(self, partition: int = 0):
        self.partition = partition
        self._data: Dict[Key, Any] = {}
        self._watchers: List[WriteWatcher] = []
        self.reads = 0
        self.writes = 0

    # -- CRUD -----------------------------------------------------------

    def get(self, key: Key, default: Any = None) -> Any:
        self.reads += 1
        return self._data.get(key, default)

    def get_many(self, keys: Iterable[Key]) -> Dict[Key, Any]:
        """Read several records in one call (counted like per-key gets;
        None for an absent key). A comprehension on purpose: the
        all-builtin ``dict(zip(keys, map(get, keys)))`` measured slower
        (docs/performance.md, "Per-key request work in builtins")."""
        data_get = self._data.get
        values = {key: data_get(key) for key in keys}
        self.reads += len(values)
        return values

    def put(self, key: Key, value: Any) -> None:
        self._notify(key)
        self.writes += 1
        self._data[key] = value

    def delete(self, key: Key) -> bool:
        """Remove ``key``; returns whether it existed."""
        self._notify(key)
        self.writes += 1
        return self._data.pop(key, _ABSENT) is not _ABSENT

    def __contains__(self, key: Key) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def keys(self) -> Iterator[Key]:
        return iter(self._data.keys())

    def items(self) -> Iterator[Tuple[Key, Any]]:
        return iter(self._data.items())

    # -- bulk operations --------------------------------------------------

    def apply_writes(self, writes: Dict[Key, Any], may_delete: bool = True) -> None:
        """Apply a transaction's buffered writes atomically.

        ``DELETED`` sentinel values remove the key. Per-key updates are
        independent and the buffer's insertion order is the write order
        of a deterministic procedure, so replicas agree without a
        re-sort; the fingerprint is order-independent regardless.

        ``may_delete=False`` asserts the buffer holds no ``DELETED``
        sentinels (the caller tracked deletions), enabling a plain
        C-speed ``dict.update``.
        """
        if self._watchers:
            for key, value in writes.items():
                if value is DELETED:
                    self.delete(key)
                else:
                    self.put(key, value)
            return
        data = self._data
        self.writes += len(writes)
        if not may_delete:
            data.update(writes)
            return
        for key, value in writes.items():
            if value is DELETED:
                data.pop(key, None)
            else:
                data[key] = value

    def load_bulk(self, data: Dict[Key, Any]) -> None:
        """Populate directly (loader path: bypasses watchers and counters)."""
        self._data.update(data)

    def snapshot(self) -> Dict[Key, Any]:
        """A shallow copy of all records."""
        return dict(self._data)

    def clear(self) -> None:
        self._data.clear()

    # -- consistency checking --------------------------------------------

    def fingerprint(self) -> int:
        """Order-independent, process-stable digest of the full contents."""
        return fingerprint_data(self._data)

    # -- watchers ---------------------------------------------------------

    def add_watcher(self, watcher: WriteWatcher) -> None:
        self._watchers.append(watcher)

    def remove_watcher(self, watcher: WriteWatcher) -> None:
        self._watchers.remove(watcher)

    def _notify(self, key: Key) -> None:
        if not self._watchers:
            return
        old = self._data.get(key, _ABSENT)
        had = old is not _ABSENT
        for watcher in self._watchers:
            watcher(key, had, old if had else None)
