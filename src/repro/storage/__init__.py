"""Storage substrate: per-partition stores, simulated disk, logs, checkpoints.

Calvin's storage layer is deliberately simple — a CRUD key/value
interface (paper Section 2) — because all isolation comes from the
deterministic locking layer above it. This package provides:

- :class:`~repro.storage.kvstore.KVStore` — the in-memory record store,
- :class:`~repro.storage.engine.StorageEngine` — per-node facade adding
  the simulated disk tier and warm-cache tracking (Section 4),
- :class:`~repro.storage.inputlog.InputLog` — the replicated input log
  (Calvin logs *inputs*, not effects),
- :mod:`~repro.storage.checkpoint` — naive synchronous and asynchronous
  Zig-Zag-style checkpointing (Section 5); recovery from a snapshot is
  deterministic replay, :meth:`repro.core.cluster.CalvinCluster.replay`.
"""

from repro.storage.checkpoint import (
    CheckpointSnapshot,
    NaiveCheckpointer,
    ZigZagCheckpointer,
)
from repro.storage.disk import SimulatedDisk, WarmCache
from repro.storage.engine import StorageEngine
from repro.storage.inputlog import InputLog, LogEntry
from repro.storage.kvstore import KVStore

__all__ = [
    "CheckpointSnapshot",
    "InputLog",
    "KVStore",
    "LogEntry",
    "NaiveCheckpointer",
    "SimulatedDisk",
    "StorageEngine",
    "WarmCache",
    "ZigZagCheckpointer",
]
