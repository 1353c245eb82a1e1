"""Recovery helpers: restore a store from a snapshot, verify replays.

Calvin recovery = latest checkpoint + deterministic replay of the input
log from the checkpoint's epoch. The cluster-level replay driver lives
in :mod:`repro.core.cluster`; this module holds the storage-side pieces
so they can be tested in isolation.
"""

from __future__ import annotations

import zlib
from typing import Any, Dict

from repro.errors import RecoveryError
from repro.partition.partitioner import Key
from repro.storage.checkpoint import CheckpointSnapshot
from repro.storage.kvstore import KVStore


def restore_store(store: KVStore, snapshot: CheckpointSnapshot) -> None:
    """Reset ``store`` to exactly the snapshot contents."""
    if snapshot.partition != store.partition:
        raise RecoveryError(
            f"snapshot is for partition {snapshot.partition}, "
            f"store is partition {store.partition}"
        )
    store.clear()
    store.load_bulk(dict(snapshot.data))


def fingerprint_data(data: Dict[Key, Any]) -> int:
    """Order-independent digest of a plain snapshot dict (matches
    :meth:`repro.storage.kvstore.KVStore.fingerprint` semantics)."""
    digest = 0
    for key, value in data.items():
        digest ^= zlib.crc32(repr((key, value)).encode("utf-8"))
    return digest
