"""Key-to-partition mapping strategies.

Partitioners must be *stable across processes and runs* (Python's
built-in ``hash`` is salted per process, so it is unusable here): replica
consistency checks compare stores produced by independently constructed
clusters.
"""

from __future__ import annotations

import sys
import zlib
from typing import Callable, Hashable, Tuple

from repro.errors import ConfigError

Key = Hashable


def stable_hash(key: Key) -> int:
    """A process-stable 32-bit hash of a key (CRC32 over its repr)."""
    return zlib.crc32(repr(key).encode("utf-8"))


class _SortTokens(dict):
    """``repr`` of every key warmed at load, interned. A miss computes
    its token and does not keep it: the table outlives every cluster in
    the process, and a key no load announced (a TPC-C order row) is
    typically sorted once in its life. The catalog's partition cache
    (:class:`~repro.partition.catalog._PartitionCache`) follows the
    same policy, warmed by the same load."""

    __slots__ = ()

    def __missing__(self, key: Key) -> str:
        return repr(key)


_SORT_TOKENS = _SortTokens()

#: ``repr(key)``, from the table when the key was warmed. Hot paths order
#: key collections with ``sorted(keys, key=sort_token)`` — the
#: process-stable order of ``sorted(keys, key=repr)`` (unlike salted
#: ``hash``), through a C-level key function: hits and misses alike stay
#: inside the one ``sorted`` pass, with no Python frame per element.
sort_token: Callable[[Key], str] = _SORT_TOKENS.__getitem__


def sorted_keys(keys) -> list:
    """``sorted(keys, key=repr)`` through the token table."""
    return sorted(keys, key=sort_token)


class SortedKeys(tuple):
    """Duplicate-free keys in sort-token order: the one stored form of a
    footprint (``TxnSpec`` / ``Transaction`` ``read_set`` and
    ``write_set``). The type is the proof of canonical form — the
    constructor is the only way in, and it hands an instance back as
    the same object — so the lock plan and the routing slices iterate a
    footprint as it stands, and a resubmitted request is re-checked by
    identity, not key by key. A hash set of the same keys is built only
    where membership is asked, and dies with that call.
    """

    __slots__ = ()

    def __new__(cls, keys=()):
        if keys.__class__ is cls:
            return keys
        return tuple.__new__(cls, sorted_keys(set(keys)))


def canonical_footprint(read_set, write_set) -> Tuple[SortedKeys, SortedKeys]:
    """``(reads, writes)`` in canonical form, as *one object* when the
    two hold the same keys: ``reads is writes`` is how the routing and
    enforcement paths recognise a read-modify-write footprint."""
    reads = SortedKeys(read_set)
    if write_set is read_set:
        return reads, reads
    writes = SortedKeys(write_set)
    return reads, (reads if writes == reads else writes)


def warm_sort_tokens(keys) -> None:
    """Precompute sort tokens for ``keys`` (a workload's key universe
    at load time), so hot-path sorts find them in the table."""
    tokens = _SORT_TOKENS
    for key in keys:
        if key not in tokens:
            tokens[key] = sys.intern(repr(key))


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
