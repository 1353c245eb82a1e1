"""Transaction requests and their place in the global serial order."""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass, fields
from functools import partial
from typing import Any, NamedTuple, Set, TYPE_CHECKING, Tuple

from repro.partition.partitioner import FootprintKeys, Key, canonical_footprint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.partition.catalog import Route

# Global sequence number: (epoch, origin_partition, index within batch).
# Tuple comparison gives exactly Calvin's interleaving rule — all batches
# of an epoch, in sequencer (origin partition) order, each in batch order.
GlobalSeq = Tuple[int, int, int]


@dataclass(slots=True, unsafe_hash=True)
class _TransactionSlots:
    """Field layout of :class:`Transaction`, assignable.

    A frozen dataclass pays one ``object.__setattr__`` call per field in
    its generated ``__init__``; this twin fills the same slots with
    plain stores and :meth:`Transaction.create` then seals the instance
    (docs/performance.md, "Record construction"). Private to this
    module: nothing else may hold an unsealed instance. The generated
    ``__hash__`` is safe because every instance that escapes is sealed.
    """

    txn_id: int
    procedure: str
    args: Any
    read_set: FootprintKeys
    write_set: FootprintKeys
    origin_partition: int = 0
    client: Any = None
    dependent: bool = False
    footprint_token: Any = None
    submit_time: float = 0.0
    restarts: int = 0


class Transaction(_TransactionSlots):
    """A transaction request: procedure + args + declared footprint.

    ``read_set``/``write_set`` are the keys the logic may touch; Calvin
    sequences and locks from these alone, so executing outside them is a
    :class:`~repro.errors.FootprintViolation`. Each is stored once, as a
    :class:`~repro.partition.partitioner.FootprintKeys` — a duplicate-free
    tuple in the order the workload declared the keys, which lock
    plans, routing slices and procedure loops iterate as it stands — and
    the two are *one object* when they hold the same keys. Every
    sequenced transaction stays in the input log, so this is what a
    transaction costs for good; nothing keeps a hash set of a footprint
    (docs/performance.md, "Memory").
    ``footprint_token`` carries the reconnaissance evidence for
    dependent (OLLP) transactions.

    Read-only once built: every hot path and every replica hands the
    same instance around, so :meth:`create` — the one constructor —
    seals it, and assigning or deleting a field afterwards raises
    :class:`dataclasses.FrozenInstanceError`. Who participates, who is
    active, who replies and which keys are local are not questions a
    transaction answers, and it keeps no answer to them: the
    :class:`~repro.partition.catalog.Route` that
    :meth:`Catalog.route <repro.partition.catalog.Catalog.route>`
    computes for its epoch travels on the :class:`SequencedTxn`.
    """

    __slots__ = ()

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        raise TypeError("build a Transaction with Transaction.create(...)")

    def __setattr__(self, name: str, value: Any) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # Pickle and copy rebuild through the one constructor, so the
        # clone is sealed too.
        return Transaction.create, tuple(getattr(self, f.name) for f in fields(self))

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
        """Build a transaction. A footprint that is already canonical
        (a spec's, on every submit and retry) is taken as it stands;
        raw iterables are deduplicated and shared here."""
        if read_set.__class__ is not FootprintKeys or write_set.__class__ is not FootprintKeys:
            read_set, write_set = canonical_footprint(read_set, write_set)
        txn = _TransactionSlots(
            txn_id,
            procedure,
            args,
            read_set,
            write_set,
            origin_partition,
            client,
            dependent,
            footprint_token,
            submit_time,
            restarts,
        )
        # Seal: same slot layout, so CPython allows the class swap.
        txn.__class__ = Transaction
        return txn

    def all_keys(self) -> Set[Key]:
        """Every declared key, as a fresh hash set."""
        return set(self.read_set).union(self.write_set)


class SequencedTxn(NamedTuple):
    """A transaction bound to its position in the global serial order,
    carrying its :class:`~repro.partition.catalog.Route` under the
    routing of its epoch (paper §3, phase 1).

    The route lives exactly as long as the transaction is in flight:
    the input log keeps only ``txn``, and a replay or a recovery resend
    recomputes the route from it.

    Compared, ordered and hashed by ``seq`` alone — the position is the
    identity, and ``txn.args`` may be unhashable — so every tuple
    comparison is overridden.
    """

    seq: GlobalSeq
    txn: Transaction
    route: "Route"

    def __eq__(self, other):
        return self.seq == other.seq if other.__class__ is SequencedTxn else NotImplemented

    def __ne__(self, other):
        return self.seq != other.seq if other.__class__ is SequencedTxn else NotImplemented

    def __lt__(self, other):
        return self.seq < other.seq if other.__class__ is SequencedTxn else NotImplemented

    def __le__(self, other):
        return self.seq <= other.seq if other.__class__ is SequencedTxn else NotImplemented

    def __gt__(self, other):
        return self.seq > other.seq if other.__class__ is SequencedTxn else NotImplemented

    def __ge__(self, other):
        return self.seq >= other.seq if other.__class__ is SequencedTxn else NotImplemented

    def __hash__(self) -> int:
        return hash(self.seq)

    @property
    def epoch(self) -> int:
        return self.seq[0]


# Builds from one ``(seq, txn, route)`` tuple in one C call.
new_sequenced = partial(tuple.__new__, SequencedTxn)
