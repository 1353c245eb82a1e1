"""Open-loop traffic: client profiles and admission control.

The paper's headline numbers are statements about a system *under
offered load*: throughput scales until the hardware saturates, then
admission at the sequencer front-end decides what happens to the excess.
Closed-loop clients (one outstanding request each) can only approach
saturation asymptotically; open-loop clients submit on a Poisson
arrival process (driven by the deterministic sim RNG) regardless of how
many requests are still outstanding, so offered load is an independent
variable. Both are one :class:`repro.core.clients.Client`; this module
holds the rest:

- :class:`ClientProfile` — one typed description of a client population,
  shared by closed-loop and open-loop clients, the benchmark harness and
  the CLI flags.
- :class:`AdmissionController` — a bounded intake queue in front of each
  input sequencer, drained at a fixed per-epoch budget, with a
  configurable overflow policy (``queue`` | ``shed`` | ``backpressure``).

Everything is deterministic: arrivals come from named RNG streams,
admission decisions are pure functions of queue state, and the
backpressure retry-after hint is computed from the backlog — the same
seed reproduces the same shed/queue decisions and the same trace digest.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional, TYPE_CHECKING, Tuple

from repro.errors import ConfigError
from repro.net.messages import REPLY_SIZE, new_reply
from repro.partition.catalog import NodeId
from repro.txn.result import TxnStatus, new_result
from repro.txn.transaction import Transaction

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.config import ClusterConfig
    from repro.sequencer.sequencer import Sequencer
    from repro.sim.kernel import Simulator

_MODES = ("closed", "open")
# Read once: a ``TxnStatus.X`` load takes ``EnumType.__getattr__``.
_REJECTED = TxnStatus.REJECTED


@dataclass(frozen=True)
class ClientProfile:
    """A typed description of one client population.

    ``mode="closed"`` clients keep one transaction outstanding each
    (``max_txns`` bounds replies) — the original behaviour.
    ``mode="open"`` clients submit on a Poisson arrival process at
    ``rate`` transactions per second per client, independent of
    completions; ``max_txns`` then bounds *arrivals*.
    """

    per_partition: int = 1
    mode: str = "closed"
    max_txns: Optional[int] = None
    rate: float = 100.0            # offered txns/sec per client (open)
    # Resubmit after a backpressure rejection's retry-after hint.
    retry_rejected: bool = True

    def validate(self) -> None:
        if self.per_partition < 0:
            raise ConfigError("per_partition must be >= 0")
        if self.mode not in _MODES:
            raise ConfigError(f"unknown client mode {self.mode!r}; use {_MODES}")
        if self.max_txns is not None and self.max_txns < 0:
            raise ConfigError("max_txns must be >= 0")
        if self.mode == "open" and self.rate <= 0:
            raise ConfigError("open-loop clients need rate > 0")


class AdmissionController:
    """A bounded intake queue in front of one input sequencer.

    The controller admits at most ``admission_epoch_budget`` transactions
    into each sequencing epoch. Arrivals beyond the budget wait in a
    FIFO queue of ``admission_queue_capacity``; the queue drains (budget
    per epoch) at every epoch tick. What happens to an arrival while the
    queue is full is the *policy*:

    - ``queue``: tail-drop silently — the request is lost and the client
      learns nothing (a router dropping packets).
    - ``shed``: reject immediately with a ``TxnStatus.REJECTED`` reply.
    - ``backpressure``: reject with a deterministic retry-after hint,
      ``epoch_duration * (1 + depth // budget)`` — the time by which the
      present backlog will have drained.

    All decisions are pure functions of (policy, queue depth, epoch
    budget), so the same seed reproduces the same admit/shed sequence.
    """

    def __init__(
        self,
        sim: "Simulator",
        node_id: NodeId,
        config: "ClusterConfig",
        sequencer: "Sequencer",
        send,
    ):
        if config.admission_policy == "none":  # pragma: no cover - guarded by caller
            raise ConfigError("AdmissionController requires a non-none policy")
        self.sim = sim
        self.node_id = node_id
        self.policy = config.admission_policy
        self.capacity = config.admission_queue_capacity
        self.budget = int(config.admission_epoch_budget or 0)
        self._hint_budget = max(1, self.budget)
        self.epoch_duration = config.epoch_duration
        self.sequencer = sequencer
        self.send = send
        self._queue: Deque[Transaction] = deque()
        self._admitted_this_epoch = 0
        # Tallies (plain ints on the hot path; gauges read them lazily).
        self.offered = 0
        self.admitted = 0
        self.queued = 0
        self.shed = 0
        self.dropped = 0
        self.backpressured = 0
        self.peak_queue_depth = 0

    # -- intake ------------------------------------------------------------

    def offer(self, txn: Transaction) -> None:
        """Admission decision for one deduplicated client request."""
        self.offered += 1
        if self._admitted_this_epoch < self.budget and not self._queue:
            self._admit(txn)
            return
        if len(self._queue) < self.capacity:
            self._queue.append(txn)
            self.queued += 1
            depth = len(self._queue)
            if depth > self.peak_queue_depth:
                self.peak_queue_depth = depth
            return
        # Queue full: overflow per policy.
        if self.policy == "queue":
            self.dropped += 1
        elif self.policy == "shed":
            self.shed += 1
            self._reject(txn, retry_after=None)
        else:  # backpressure
            self.backpressured += 1
            backlog_epochs = 1 + len(self._queue) // self._hint_budget
            self._reject(txn, retry_after=self.epoch_duration * backlog_epochs)

    def _admit(self, txn: Transaction) -> None:
        self.admitted += 1
        self._admitted_this_epoch += 1
        self.sequencer.accept(txn)

    def _reject(self, txn: Transaction, retry_after: Optional[float]) -> None:
        hint = retry_after if retry_after is not None else "admission shed"
        fields = (txn.txn_id, _REJECTED, hint, txn.submit_time, self.sim.now, txn.restarts, 0.0)
        self.send(txn.client, new_reply((new_result(fields),)), REPLY_SIZE)

    # -- epoch hook (called by the sequencer after it cuts each batch) -----

    def on_epoch_tick(self) -> None:
        """Reset the per-epoch budget and drain the queue into it."""
        self._admitted_this_epoch = 0
        queue = self._queue
        while queue and self._admitted_this_epoch < self.budget:
            self._admit(queue.popleft())

    def drain(self) -> Tuple[Transaction, ...]:
        """Empty the queue and return its contents in FIFO order.

        Used by a retiring sequencer's hand-off: queued-but-unadmitted
        transactions are forwarded to the successor origin instead of
        being stranded on a partition that no longer sequences input.
        """
        leftovers = tuple(self._queue)
        self._queue.clear()
        return leftovers

    # -- observability -----------------------------------------------------

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    def register_metrics(self, registry, prefix: str) -> None:
        """Expose intake tallies as gauges in ``registry``."""
        registry.gauge(f"{prefix}.admission.offered", lambda: self.offered)
        registry.gauge(f"{prefix}.admission.admitted", lambda: self.admitted)
        registry.gauge(f"{prefix}.admission.queued", lambda: self.queued)
        registry.gauge(f"{prefix}.admission.shed", lambda: self.shed)
        registry.gauge(f"{prefix}.admission.dropped", lambda: self.dropped)
        registry.gauge(
            f"{prefix}.admission.backpressured", lambda: self.backpressured
        )
        registry.gauge(f"{prefix}.admission.queue_depth", lambda: self.queue_depth)
        registry.gauge(
            f"{prefix}.admission.peak_queue_depth", lambda: self.peak_queue_depth
        )
