"""Benchmark clients.

One :class:`Client` class serves both client models a
:class:`~repro.core.traffic.ClientProfile` describes. A *closed* client
keeps exactly one request outstanding against its local node (replica
0), matching how the paper saturates the system; an *open* client
starts requests on a Poisson arrival process whether or not earlier
ones have finished, so offered load is an independent variable.
Everything else is one path: dependent transactions go through OLLP
reconnaissance before submission, RESTART outcomes are resubmitted
under the engine's ``max_restarts`` and ``retry_backoff``, and
admission rejections are resubmitted or given up by the same rule.
"""

from __future__ import annotations

from typing import Any, Dict, TYPE_CHECKING

from repro.net.messages import SUBMIT_SIZE, TxnReply, new_submit
from repro.partition.catalog import NodeId, client_address, node_address
from repro.txn.ollp import reconnoiter
from repro.txn.result import TxnStatus
from repro.txn.transaction import Transaction
from repro.workloads.base import TxnSpec, Workload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.cluster import Cluster
    from repro.core.traffic import ClientProfile

# Read once: a ``TxnStatus.X`` load takes ``EnumType.__getattr__``.
_REJECTED = TxnStatus.REJECTED
_RESTART = TxnStatus.RESTART


class Client:
    """One client of either mode; ``profile.mode`` decides only four things.

    1. When the next request starts: an open client on its Poisson
       arrival timer, a closed one as soon as the previous request
       ends.
    2. What ``max_txns`` bounds: arrivals (open) or replies, restarts
       included (closed).
    3. A rejection with no retry-after hint (a shed): a closed client
       retries it after one epoch, an open client loses it.
    4. The RNG stream family (``"openloop"`` or ``"client"``) and the
       per-client latency histogram ``client.open{i}.latency`` (open
       only).

    ``retried`` counts rejections that will be resubmitted (a
    backpressure hint is honoured unless ``profile.retry_rejected`` is
    off), ``rejected`` the ones given up. Every reply that is not a
    rejection ends an attempt: it counts in ``completed`` and adds a
    latency sample.
    """

    def __init__(
        self,
        cluster: "Cluster",
        partition: int,
        index: int,
        profile: "ClientProfile",
    ):
        self.cluster = cluster
        self.partition = partition
        self.profile = profile
        self.workload: Workload = cluster.workload
        self.max_txns = profile.max_txns
        self.open = profile.mode == "open"
        self.address = client_address(0, index)
        # Separate stream families: adding open-loop clients must never
        # perturb the draws closed-loop clients see.
        self.rng = cluster.rngs.stream("openloop" if self.open else "client", index)
        self._target = node_address(NodeId(0, partition))
        self._shed_retry = 0.0 if self.open else cluster.config.epoch_duration
        self._inflight: Dict[int, TxnSpec] = {}
        self._pending_resubmits = 0
        self._started = False
        self.arrivals = 0
        self.submitted = 0
        self.completed = 0
        self.retried = 0
        self.rejected = 0
        self.stale_replies = 0
        self.latency = (
            cluster.metrics_registry.histogram(f"client.open{index}.latency")
            if self.open
            else None
        )
        cluster.network.register(self.address, self._on_message)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        if self.open:
            self.cluster.sim.schedule(self._next_gap(), self._arrive)
        else:
            self._start_request()

    def redirect(self, partition: int) -> None:
        """Re-home this client onto another origin partition.

        The control plane schedules the redirect at the retiring
        origin's hand-off time, so every same-seed run moves the same
        clients at the same instant. Replies for in-flight requests
        still arrive (the reply path uses the client address).
        """
        self.partition = partition
        self._target = node_address(NodeId(0, partition))

    @property
    def finished(self) -> bool:
        """The ``max_txns`` bound is reached (never True when unbounded)."""
        if self.max_txns is None:
            return False
        return (self.arrivals if self.open else self.completed) >= self.max_txns

    @property
    def idle(self) -> bool:
        """Nothing outstanding, no resubmission due, no request to come."""
        return not self._inflight and self._pending_resubmits == 0 and self.finished

    # -- starting requests -------------------------------------------------

    def _next_gap(self) -> float:
        return self.rng.expovariate(self.profile.rate)

    def _arrive(self) -> None:
        self._start_request()
        if not self.finished:
            self.cluster.sim.schedule(self._next_gap(), self._arrive)

    def _start_request(self) -> None:
        if self.finished:
            return
        self.arrivals += 1
        spec = self.workload.generate(self.rng, self.partition, self.cluster.catalog)
        self._submit(spec, 0)

    def _request_ended(self) -> None:
        if not self.open:
            self._start_request()

    # -- submission --------------------------------------------------------

    def _submit(self, spec: TxnSpec, restarts: int) -> None:
        """Turn ``spec`` into a transaction and send it to the origin."""
        cluster = self.cluster
        read_set, write_set, token = spec.read_set, spec.write_set, None
        if spec.dependent:
            procedure = cluster.registry.get(spec.procedure)
            footprint = reconnoiter(procedure, cluster.analytics_read, spec.args)
            read_set = (*footprint.read_set, *read_set)
            write_set = (*footprint.write_set, *write_set)
            token = footprint.token
        txn = Transaction.create(
            cluster.next_txn_id(),
            spec.procedure,
            spec.args,
            read_set,
            write_set,
            self.partition,
            self.address,
            spec.dependent,
            token,
            cluster.sim.now,
            restarts,
        )
        self.submitted += 1
        self._inflight[txn.txn_id] = spec
        cluster.network.send(self.address, self._target, new_submit((txn,)), SUBMIT_SIZE)

    def _resubmit(self, spec: TxnSpec, restarts: int) -> None:
        self._pending_resubmits -= 1
        self._submit(spec, restarts)

    # -- replies -----------------------------------------------------------

    def _on_message(self, src: Any, message: Any) -> None:
        assert isinstance(message, TxnReply), f"client got {message!r}"
        result = message.result
        spec = self._inflight.pop(result.txn_id, None)
        if spec is None:
            # Duplicate or reordered delivery from a faulty network.
            self.stale_replies += 1
            return
        # Every reply echoes the attempt's restart count, so the map
        # keeps only the spec (one allocation less per request).
        restarts = result.restarts
        cluster = self.cluster
        if result.status is _REJECTED:
            # Admission control refused the request before sequencing.
            # A resubmission gets a fresh txn id: the sequencer's dedupe
            # set already saw the old one. A float value is the hint.
            delay = result.value
            if not (isinstance(delay, float) and delay):
                delay = self._shed_retry
            elif not self.profile.retry_rejected:
                delay = 0.0
            if delay:
                self.retried += 1
                self._pending_resubmits += 1
                cluster.sim.schedule(delay, self._resubmit, spec, restarts)
            else:
                self.rejected += 1
                self._request_ended()
            return
        if cluster.sim.now >= cluster.metrics.window_start:
            latency = result.latency
            cluster.metrics.record_latency(latency)
            if self.latency is not None:
                self.latency.add(latency)
        self.completed += 1
        if result.status is _RESTART and restarts < cluster.max_restarts:
            # Stale OLLP footprint (Calvin) or wait-die death (baseline):
            # reconnoiter again and resubmit, after the engine's backoff.
            if cluster.retry_backoff > 0:
                self._pending_resubmits += 1
                cluster.sim.schedule(cluster.retry_backoff, self._resubmit, spec, restarts + 1)
            else:
                self._submit(spec, restarts + 1)
            return
        self._request_ended()

    # -- introspection -----------------------------------------------------

    def latency_stats(self) -> Dict[str, float]:
        """Per-client latency percentiles (open clients, window only)."""
        return {
            "count": self.latency.count,
            "p50": self.latency.percentile(50),
            "p95": self.latency.percentile(95),
            "p99": self.latency.percentile(99),
        }
