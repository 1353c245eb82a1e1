"""Transaction requests and their place in the global serial order."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, FrozenSet, Tuple

from repro.partition.partitioner import Key, sorted_keys

# Global sequence number: (epoch, origin_partition, index within batch).
# Tuple comparison gives exactly Calvin's interleaving rule — all batches
# of an epoch, in sequencer (origin partition) order, each in batch order.
GlobalSeq = Tuple[int, int, int]


@dataclass(frozen=True, slots=True)
class Transaction:
    """A transaction request: procedure + args + declared footprint.

    ``read_set``/``write_set`` are the keys the logic may touch; Calvin
    sequences and locks from these alone, so executing outside them is a
    :class:`~repro.errors.FootprintViolation`. ``footprint_token`` carries
    the reconnaissance evidence for dependent (OLLP) transactions.

    Treated as immutable after creation (every hot path hands the same
    instance around); the trailing underscore fields memoise derived
    views — the sorted key orders and the one routing record. Who
    participates, who is active, who replies and which keys are local
    are not questions a transaction answers: ask
    :meth:`Catalog.route <repro.partition.catalog.Catalog.route>`.
    """

    txn_id: int
    procedure: str
    args: Any
    read_set: FrozenSet[Key]
    write_set: FrozenSet[Key]
    origin_partition: int = 0
    client: Any = None
    dependent: bool = False
    footprint_token: Any = None
    submit_time: float = 0.0
    restarts: int = 0
    # Memo fields: derived views, excluded from comparisons and repr
    # (input-log replay checks compare transactions across independent
    # runs whose memoization states differ). Written once each via
    # ``object.__setattr__``; reads are plain (fast) slot loads.
    _sorted_reads: Any = field(default=None, init=False, repr=False, compare=False)
    _sorted_writes: Any = field(default=None, init=False, repr=False, compare=False)
    # Written by Catalog.route: the routing record, per (catalog,
    # routing version).
    _route: Any = field(default=None, init=False, repr=False, compare=False)

    @staticmethod
    def create(
        txn_id: int,
        procedure: str,
        args: Any,
        read_set,
        write_set,
        origin_partition: int = 0,
        client: Any = None,
        dependent: bool = False,
        footprint_token: Any = None,
        submit_time: float = 0.0,
        restarts: int = 0,
    ) -> "Transaction":
        """Build a transaction, normalizing the footprint sets."""
        return Transaction(
            txn_id=txn_id,
            procedure=procedure,
            args=args,
            read_set=frozenset(read_set),
            write_set=frozenset(write_set),
            origin_partition=origin_partition,
            client=client,
            dependent=dependent,
            footprint_token=footprint_token,
            submit_time=submit_time,
            restarts=restarts,
        )

    def all_keys(self) -> FrozenSet[Key]:
        return self.read_set | self.write_set

    def sorted_reads(self) -> Tuple[Key, ...]:
        """``read_set`` in stable (sort-token) order, memoised."""
        cached = self._sorted_reads
        if cached is None:
            if self.read_set == self.write_set:
                cached = self.sorted_writes()
            else:
                cached = tuple(sorted_keys(self.read_set))
            object.__setattr__(self, "_sorted_reads", cached)
        return cached

    def sorted_writes(self) -> Tuple[Key, ...]:
        """``write_set`` in stable (sort-token) order, memoised."""
        cached = self._sorted_writes
        if cached is None:
            cached = tuple(sorted_keys(self.write_set))
            object.__setattr__(self, "_sorted_writes", cached)
        return cached


@dataclass(frozen=True, order=True)
class SequencedTxn:
    """A transaction bound to its position in the global serial order."""

    seq: GlobalSeq
    txn: Transaction = field(compare=False)

    @property
    def epoch(self) -> int:
        return self.seq[0]
