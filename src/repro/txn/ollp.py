"""Optimistic Lock Location Prediction (paper Section 3.2.1).

Dependent transactions — those whose read/write set depends on data,
like TPC-C Delivery picking the oldest undelivered order — cannot be
sequenced directly. OLLP handles them in two steps:

1. **Reconnaissance**: an inexpensive, unsequenced read phase computes
   the expected footprint (and records a token describing the data it
   was derived from).
2. **Recheck**: when the (now sequenced) transaction executes, it first
   verifies deterministically that the footprint is still what the
   reconnaissance predicted. If not, every participant reaches the same
   conclusion, the transaction deterministically "aborts", and the
   client restarts it with a fresh reconnaissance.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Any, Callable, Tuple

from repro.errors import ConfigError, FootprintViolation, TransactionAborted
from repro.partition.partitioner import FootprintKeys, Key, canonical_footprint
from repro.txn.procedures import Procedure
from repro.txn.result import TxnStatus

ReadFn = Callable[[Key], Any]

#: Restarts a client allows one dependent transaction before it gives
#: up and reports the RESTART (so at most ``MAX_RESTARTS + 1``
#: submissions).
MAX_RESTARTS = 10
# Read once: a ``TxnStatus.X`` load takes ``EnumType.__getattr__``.
_COMMITTED = TxnStatus.COMMITTED
_ABORTED = TxnStatus.ABORTED
_RESTART = TxnStatus.RESTART


@dataclass(frozen=True)
class Footprint:
    """The result of a reconnaissance pass, in the stored form of a
    transaction's footprint (:class:`FootprintKeys`, declaration order)."""

    read_set: FootprintKeys
    write_set: FootprintKeys
    # Evidence for the recheck, e.g. the counter values the footprint
    # was derived from. Must be picklable/plain data: it rides in the
    # replicated input log.
    token: Any = None

    @staticmethod
    def create(read_set, write_set, token: Any = None) -> "Footprint":
        return Footprint(*canonical_footprint(read_set, write_set), token)


def reconnoiter(procedure: Procedure, read_fn: ReadFn, args: Any) -> Footprint:
    """Run a procedure's reconnaissance phase against ``read_fn``.

    ``read_fn`` may read *any* key (reconnaissance is unsequenced and
    unlocked — it is allowed to see slightly stale data; staleness is
    what the execution-time recheck protects against).
    """
    if procedure.reconnoiter is None:
        raise ConfigError(f"procedure {procedure.name!r} is not dependent")
    footprint = procedure.reconnoiter(read_fn, args)
    if not isinstance(footprint, Footprint):
        raise ConfigError(
            f"reconnoiter of {procedure.name!r} must return a Footprint"
        )
    try:
        pickle.dumps(footprint.token)
    except (pickle.PicklingError, AttributeError, TypeError) as exc:
        raise ConfigError(
            f"reconnoiter of {procedure.name!r} returned a token that is "
            f"not plain data ({exc}); the token rides the input log"
        ) from None
    return footprint


def recheck_passes(procedure: Procedure, context) -> bool:
    """Run a dependent transaction's recheck on its execution context.

    True when the reconnoitered footprint still holds (or the procedure
    has no recheck). The recheck reads through the same enforcing
    context as the logic, so a read outside the footprint raises there;
    a recheck that buffers a write raises here, because its verdict is
    the only thing it may produce.
    """
    recheck = procedure.recheck
    if recheck is None:
        return True
    verdict = recheck(context)
    if context.writes:
        raise FootprintViolation(
            f"recheck of {procedure.name!r} wrote {len(context.writes)} "
            "key(s); a recheck is read-only"
        )
    return bool(verdict)


def run_logic(procedure: Procedure, context) -> Tuple[TxnStatus, Any]:
    """The one logic step of every engine and of the serial checker:
    RESTART on a failed recheck, ABORTED (reason; writes dropped) on
    :class:`TransactionAborted`, else COMMITTED with the logic's value."""
    if context.txn.dependent and not recheck_passes(procedure, context):
        return _RESTART, None
    try:
        return _COMMITTED, procedure.logic(context)
    except TransactionAborted as abort:
        context.writes.clear()
        return _ABORTED, abort.reason
