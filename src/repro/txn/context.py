"""Transaction execution context.

The context is what procedure logic sees: reads answered from the
already-collected local + remote snapshot, writes buffered for atomic
application, and the declared footprint enforced on every access.
Determinism requirements: no wall-clock, no ambient randomness — the
only randomness available is a per-transaction stream derived from the
transaction id, which is identical on every replica.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Optional

from repro.errors import FootprintViolation, TransactionAborted
from repro.partition.partitioner import Key
from repro.txn.transaction import Transaction


class _Deleted:
    """Sentinel marking a buffered delete."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<DELETED>"


DELETED = _Deleted()


class TxnContext:
    """What a stored procedure gets to work with during execution.

    ``reads`` is the collected snapshot and must be keyed by declared
    read keys only — every engine builds it from the route's read
    slices, absent rows included (value None) — because the footprint
    is stored as tuples in footprint order (:class:`Transaction`), not
    hash sets, and the snapshot doubles as the membership test: a hit
    is a declared read, and only a miss scans the declared tuple. Writes
    are checked against the same snapshot when the footprint is one
    read-modify-write set, else against a set that lives as long as
    this context.
    """

    __slots__ = ("txn", "args", "_reads", "_writable", "writes", "deleted", "_rng")

    def __init__(self, txn: Transaction, reads: Dict[Key, Any]):
        self.txn = txn
        self.args = txn.args
        self._reads = reads
        write_set = txn.write_set
        self._writable = reads if write_set is txn.read_set else frozenset(write_set)
        self.writes: Dict[Key, Any] = {}
        # True once delete() has buffered a DELETED sentinel — lets the
        # store apply delete-free buffers with one dict.update.
        self.deleted = False
        self._rng: Optional[random.Random] = None

    def read(self, key: Key) -> Any:
        """Value of ``key`` in the transaction's snapshot (None if absent).

        Reads observe the transaction's own earlier writes
        (read-your-writes within the transaction). A write-set key may
        only be read *after* this transaction wrote it — reading its
        pre-image requires declaring it in the read set too, since only
        read-set values are shipped between participants.
        """
        writes = self.writes
        if key in writes:
            value = writes[key]
            return None if value is DELETED else value
        try:
            return self._reads[key]
        except KeyError:
            pass
        if key not in self.txn.read_set:
            raise FootprintViolation(
                f"txn {self.txn.txn_id} read outside declared read set: {key!r} "
                "(write-set keys are readable only after being written)"
            )
        return None

    def write(self, key: Key, value: Any) -> None:
        """Buffer a write; applied atomically iff the transaction commits."""
        if key not in self._writable and key not in self.txn.write_set:
            raise FootprintViolation(
                f"txn {self.txn.txn_id} write outside declared write set: {key!r}"
            )
        if value is DELETED:
            raise FootprintViolation("use delete() to remove a key")
        self.writes[key] = value

    def delete(self, key: Key) -> None:
        """Buffer a deletion of ``key``."""
        if key not in self._writable and key not in self.txn.write_set:
            raise FootprintViolation(
                f"txn {self.txn.txn_id} delete outside declared write set: {key!r}"
            )
        self.writes[key] = DELETED
        self.deleted = True

    def abort(self, reason: str = "aborted by transaction logic") -> None:
        """Deterministically abort; every active participant takes the
        same branch because logic and snapshot are identical everywhere."""
        raise TransactionAborted(reason)

    @property
    def random(self) -> random.Random:
        """Per-transaction deterministic randomness (same on all replicas)."""
        if self._rng is None:
            self._rng = random.Random(self.txn.txn_id * 2654435761 % (2**31))
        return self._rng

    def snapshot(self) -> Dict[Key, Any]:
        """A copy of the read snapshot (for checkers/tests)."""
        return dict(self._reads)
