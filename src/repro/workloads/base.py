"""Workload interface.

A workload bundles everything a benchmark needs: the stored procedures,
the initial database contents, and a generator of transaction requests.
Clients call :meth:`Workload.generate` to get the next request spec; the
cluster turns specs into sequenced transactions.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, NamedTuple, Optional

from repro.partition.catalog import Catalog
from repro.partition.partitioner import (
    FootprintKeys,
    Key,
    Partitioner,
    canonical_footprint,
)
from repro.txn.procedures import ProcedureRegistry


class TxnSpec(NamedTuple):
    """A client-side transaction request before sequencing.

    The footprint is already in the stored form of
    :class:`~repro.txn.transaction.Transaction` — canonical
    :class:`~repro.partition.partitioner.FootprintKeys`, one object when
    reads and writes coincide — so every submit and retry of the spec
    hands the same two tuples through. :meth:`create` canonicalises raw
    iterables, keeping the order a sequence declares; a generator that
    builds ``FootprintKeys`` itself may call the constructor directly.
    """

    procedure: str
    args: Any
    read_set: FootprintKeys
    write_set: FootprintKeys
    dependent: bool = False

    @staticmethod
    def create(procedure: str, args: Any, read_set, write_set, dependent: bool = False):
        return TxnSpec(procedure, args, *canonical_footprint(read_set, write_set), dependent)


class Workload:
    """Base class for benchmark workloads."""

    name = "workload"

    def register(self, registry: ProcedureRegistry) -> None:
        """Register this workload's stored procedures."""
        raise NotImplementedError

    def build_partitioner(self, num_partitions: int) -> Partitioner:
        """The partitioner this workload is designed for."""
        raise NotImplementedError

    def initial_data(self, catalog: Catalog) -> Dict[Key, Any]:
        """The loaded database contents (whole key space)."""
        raise NotImplementedError

    def generate(
        self, rng: random.Random, origin_partition: int, catalog: Catalog
    ) -> TxnSpec:
        """The next transaction request from a client at ``origin_partition``."""
        raise NotImplementedError

    def cold_predicate(self) -> Optional[Callable[[Key], bool]]:
        """Which keys live on the cold (disk) tier; None = all memory."""
        return None
