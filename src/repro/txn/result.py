"""Transaction outcomes as reported back to clients."""

from __future__ import annotations

import enum
from functools import partial
from typing import Any, NamedTuple


class TxnStatus(enum.Enum):
    """Terminal status of one execution attempt."""

    COMMITTED = "committed"
    # Deterministic abort decided by transaction logic (e.g. TPC-C's 1%
    # invalid-item New Orders). The abort itself is part of the agreed
    # history; clients do not retry.
    ABORTED = "aborted"
    # OLLP footprint recheck failed; the client should reconnoiter again
    # and resubmit. Also used by the 2PC baseline for wait-die deaths.
    RESTART = "restart"
    # Refused by admission control before sequencing (overload). The
    # transaction never entered the agreed history; under the
    # "backpressure" policy the result's ``value`` carries a
    # deterministic retry-after hint in virtual seconds.
    REJECTED = "rejected"


class TransactionResult(NamedTuple):
    """What the reply partition sends back to the client."""

    txn_id: int
    status: TxnStatus
    value: Any = None
    submit_time: float = 0.0
    complete_time: float = 0.0
    restarts: int = 0
    # When this node's lock manager finished granting the transaction's
    # locks — splits latency into "sequencing + lock wait" vs "execution".
    granted_time: float = 0.0

    @property
    def latency(self) -> float:
        """Client-observed latency of this attempt."""
        return self.complete_time - self.submit_time

    @property
    def sequencing_latency(self) -> float:
        """Submit → all local locks granted (epoch wait + queueing)."""
        return max(0.0, self.granted_time - self.submit_time)

    @property
    def execution_latency(self) -> float:
        """Lock grant → completion (worker queue + phases 2-5)."""
        return max(0.0, self.complete_time - self.granted_time)

    @property
    def committed(self) -> bool:
        return self.status is TxnStatus.COMMITTED

    @property
    def rejected(self) -> bool:
        """True when admission control refused the request (overload)."""
        return self.status is TxnStatus.REJECTED

    @property
    def retry_after(self) -> float:
        """Backpressure hint: resubmit after this many virtual seconds
        (0.0 unless this is a backpressure rejection)."""
        if self.status is TxnStatus.REJECTED and isinstance(self.value, float):
            return self.value
        return 0.0


# Builds from a tuple of all seven fields in one C call, skipping the
# Python-level ``__new__`` (docs/performance.md, "Record construction").
new_result = partial(tuple.__new__, TransactionResult)
