"""Key-to-partition mapping strategies.

Partitioners must be *stable across processes and runs* (Python's
built-in ``hash`` is salted per process, so it is unusable here): replica
consistency checks compare stores produced by independently constructed
clusters.
"""

from __future__ import annotations

import zlib
from operator import itemgetter
from typing import Callable, Hashable, Iterable, List, Sequence, Tuple

from repro.errors import ConfigError

Key = Hashable

_id_field = itemgetter(1)


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

    def owners_of(self, keys: Iterable[Key]) -> List[int]:
        """The partition of each of ``keys``, in order (one pass, so
        ``keys`` may be a generator)."""
        return list(map(self.partition_of, keys))

    def warm(self, keys: Iterable[Key]) -> None:
        """Take note of the keys a load holds (``Cluster.load``). A no-op
        here: only a partitioner whose lookup is expensive keeps them."""


class _OwnerMemo(dict):
    """Owners of the keys a load announced. A miss is computed and not
    kept, because a key no load announced (a TPC-C order row) is
    typically routed once in its life, and keeping each would grow the
    memo with the length of the run."""

    __slots__ = ("_compute",)

    def __init__(self, compute: Callable[[Key], int]):
        self._compute = compute

    def __missing__(self, key: Key) -> int:
        return self._compute(key)


class HashPartitioner(Partitioner):
    """Uniform hash partitioning over the stable hash of the whole key.

    The hash (CRC32 over a ``repr``) used to dominate profiles, so the
    owner of every loaded key is memoised (:meth:`warm`); the memo
    belongs to the partitioner, which dies with its cluster."""

    def __init__(self, num_partitions: int):
        super().__init__(num_partitions)
        self._memo = _OwnerMemo(self._hash_owner)

    def _hash_owner(self, key: Key) -> int:
        return stable_hash(key) % self.num_partitions

    def partition_of(self, key: Key) -> int:
        return self._memo[key]

    def owners_of(self, keys: Iterable[Key]) -> List[int]:
        return list(map(self._memo.__getitem__, keys))

    def warm(self, keys: Iterable[Key]) -> None:
        memo = self._memo
        for key in keys:
            if key not in memo:
                memo[key] = self._hash_owner(key)


class KeyFieldPartitioner(Partitioner):
    """Partitioning by the id every key carries in ``key[1]``: the
    owner of a key is ``owners[key[1]]``, from a table built once
    (``range(n)`` when the id *is* the partition, as in the
    microbenchmark and YCSB; warehouse → partition for TPC-C). A
    footprint's owners are two C-level ``map`` passes, with no Python
    frame per key."""

    def __init__(self, num_partitions: int, owners: Sequence[int]):
        super().__init__(num_partitions)
        owners = tuple(owners)
        if any(not 0 <= owner < num_partitions for owner in owners):
            raise ConfigError(f"owner table names a partition outside [0, {num_partitions})")
        self._owner_of_id = owners.__getitem__

    def partition_of(self, key: Key) -> int:
        return self._owner_of_id(key[1])

    def owners_of(self, keys: Iterable[Key]) -> List[int]:
        return list(map(self._owner_of_id, map(_id_field, keys)))


class FuncPartitioner(Partitioner):
    """Partitioning by a caller-supplied function.

    The function may return any integer; it is reduced modulo the
    partition count, so "partition by the id in field 1" is simply
    ``lambda key: key[1]``. Nothing is memoised: a function that is
    expensive to call belongs in a partitioner of its own.
    """

    def __init__(self, num_partitions: int, func: Callable[[Key], int]):
        super().__init__(num_partitions)
        self._func = func

    def partition_of(self, key: Key) -> int:
        return int(self._func(key)) % self.num_partitions
