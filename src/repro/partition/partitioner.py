"""Key-to-partition mapping strategies.

Partitioners must be *stable across processes and runs* (Python's
built-in ``hash`` is salted per process, so it is unusable here): replica
consistency checks compare stores produced by independently constructed
clusters.
"""

from __future__ import annotations

import zlib
from typing import Callable, Hashable, Tuple

from repro.errors import ConfigError

Key = Hashable


def stable_hash(key: Key) -> int:
    """A process-stable 32-bit hash of a key (CRC32 over its repr)."""
    return zlib.crc32(repr(key).encode("utf-8"))


class FootprintKeys(tuple):
    """Duplicate-free keys in the order the workload declared them: the
    one stored form of a footprint (``TxnSpec`` / ``Transaction``
    ``read_set`` and ``write_set``). The type is the proof of canonical
    form — the constructor is the only way in, and it hands an instance
    back as the same object — so the lock plan and the routing slices
    iterate a footprint as it stands, and a resubmitted request is
    re-checked by identity, not key by key. A hash set of the same keys
    is built only where membership is asked, and dies with that call.

    Declaration order rides the input log, so it must be the same in
    every process: a sequence keeps its own order (first occurrence
    wins), while a ``set`` or ``frozenset``, whose iteration order
    follows the per-process salted ``hash``, is taken in ``repr`` order.
    Which order one transaction's keys are in decides nothing in
    Calvin: locks are granted in global sequence order, whatever order
    each transaction requests its own keys in (paper Section 3.1).
    """

    __slots__ = ()

    def __new__(cls, keys=()):
        if keys.__class__ is cls:
            return keys
        if isinstance(keys, (set, frozenset)):
            return tuple.__new__(cls, sorted(keys, key=repr))
        return tuple.__new__(cls, dict.fromkeys(keys))


def canonical_footprint(read_set, write_set) -> Tuple[FootprintKeys, FootprintKeys]:
    """``(reads, writes)`` in canonical form, as *one object* when the
    two hold the same keys in the same order: ``reads is writes`` is how
    the routing and enforcement paths recognise a read-modify-write
    footprint."""
    reads = FootprintKeys(read_set)
    if write_set is read_set:
        return reads, reads
    writes = FootprintKeys(write_set)
    return reads, (reads if writes == reads else writes)


class Partitioner:
    """Maps keys to partition ids in ``[0, num_partitions)``."""

    def __init__(self, num_partitions: int):
        if num_partitions < 1:
            raise ConfigError(f"num_partitions must be >= 1, got {num_partitions}")
        self.num_partitions = num_partitions

    def partition_of(self, key: Key) -> int:
        raise NotImplementedError


class HashPartitioner(Partitioner):
    """Uniform hash partitioning over the stable hash of the whole key."""

    def partition_of(self, key: Key) -> int:
        return stable_hash(key) % self.num_partitions


class FuncPartitioner(Partitioner):
    """Partitioning by a caller-supplied function (e.g. TPC-C by warehouse).

    The function may return any integer; it is reduced modulo the
    partition count, so "partition by warehouse id" is simply
    ``lambda key: warehouse_of(key)``.
    """

    def __init__(self, num_partitions: int, func: Callable[[Key], int]):
        super().__init__(num_partitions)
        self._func = func

    def partition_of(self, key: Key) -> int:
        return int(self._func(key)) % self.num_partitions
