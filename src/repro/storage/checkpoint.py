"""Checkpointing modes (paper Section 5).

Because Calvin replicates inputs, a checkpoint only needs to capture a
*transactionally consistent* store snapshot at some point of the global
sequence; the input log replays everything after it.

Two modes are implemented:

- **naive**: stop processing, dump every record, resume. Trivially
  consistent, but the node is unavailable for the whole dump.
- **zigzag**: an asynchronous variant in the spirit of Cao et al.'s
  Zig-Zag scheme — when the checkpoint begins, the store keeps (at most)
  two versions per record: the *stable* version as of the checkpoint
  point, preserved copy-on-write for records mutated before the dumper
  reaches them, and the live version. Normal processing continues; a
  background dumper walks the key space and emits stable versions,
  paying CPU that would otherwise execute transactions (the Figure 8
  throughput dip).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import StorageError
from repro.partition.partitioner import Key
from repro.storage.kvstore import KVStore

_TOMBSTONE = object()


@dataclass
class CheckpointSnapshot:
    """A completed, transactionally consistent partition snapshot."""

    partition: int
    # The snapshot reflects exactly the transactions sequenced strictly
    # before this epoch (replay resumes from `epoch`).
    epoch: int
    mode: str
    data: Dict[Key, Any] = field(default_factory=dict)
    started_at: float = 0.0
    finished_at: float = 0.0

    @property
    def record_count(self) -> int:
        return len(self.data)


class NaiveCheckpointer:
    """Stop-the-world dump: consistent because nothing runs meanwhile."""

    mode = "naive"

    def __init__(self, store: KVStore, partition: int):
        self.store = store
        self.partition = partition

    def dump_duration(self, record_cpu: float) -> float:
        """Virtual time the node is frozen while dumping."""
        return len(self.store) * record_cpu

    def capture(self, epoch: int, now: float) -> CheckpointSnapshot:
        """Take the snapshot (call while the node is paused)."""
        return CheckpointSnapshot(
            partition=self.partition,
            epoch=epoch,
            mode=self.mode,
            data=self.store.snapshot(),
            started_at=now,
            finished_at=now,
        )


class ZigZagCheckpointer:
    """Asynchronous two-version checkpointing.

    Usage: ``begin(epoch)`` at a quiescent point between two epochs
    (the scheduler arranges this), then repeatedly ``dump_slice(n)``
    from a paced background process until ``pending == 0``, then
    ``finish(now)``.
    """

    mode = "zigzag"

    def __init__(self, store: KVStore, partition: int):
        self.store = store
        self.partition = partition
        self._active = False
        self._stable: Dict[Key, Any] = {}
        self._pending: List[Key] = []
        self._cursor = 0
        self._snapshot: Optional[CheckpointSnapshot] = None

    @property
    def active(self) -> bool:
        return self._active

    @property
    def pending(self) -> int:
        return len(self._pending) - self._cursor

    def begin(self, epoch: int, now: float) -> None:
        if self._active:
            raise StorageError("checkpoint already in progress")
        self._active = True
        self._stable = {}
        # repr walk order: the same in every process and every replica.
        self._pending = sorted(self.store.keys(), key=repr)
        self._cursor = 0
        self._snapshot = CheckpointSnapshot(
            partition=self.partition, epoch=epoch, mode=self.mode, started_at=now
        )
        self.store.add_watcher(self._on_write)

    def _on_write(self, key: Key, had_value: bool, old_value: Any) -> None:
        # Preserve the stable (checkpoint-time) version of a record the
        # dumper has not reached yet. Records created after `begin` are
        # not part of the snapshot (had_value False -> tombstone).
        if key in self._stable:
            return
        self._stable[key] = old_value if had_value else _TOMBSTONE

    def dump_slice(self, max_records: int) -> int:
        """Emit up to ``max_records`` stable versions; returns how many."""
        if not self._active:
            raise StorageError("dump_slice without an active checkpoint")
        assert self._snapshot is not None
        emitted = 0
        data = self._snapshot.data
        while emitted < max_records and self._cursor < len(self._pending):
            key = self._pending[self._cursor]
            self._cursor += 1
            if key in self._stable:
                value = self._stable.pop(key)
            else:
                # Key untouched since begin(): live version is stable.
                # (It must still exist; deletion would have COW'd it.)
                value = self.store.get(key)
            if value is not _TOMBSTONE:
                data[key] = value
            emitted += 1
        return emitted

    def finish(self, now: float) -> CheckpointSnapshot:
        if not self._active:
            raise StorageError("finish without an active checkpoint")
        if self.pending:
            raise StorageError(f"finish with {self.pending} records still pending")
        self.store.remove_watcher(self._on_write)
        self._active = False
        snapshot = self._snapshot
        assert snapshot is not None
        snapshot.finished_at = now
        self._snapshot = None
        self._stable = {}
        self._pending = []
        return snapshot
