"""Deterministic processor-sharing bandwidth model for WAN links.

Each directed :class:`~repro.geo.topology.GeoLink` with finite capacity
gets one :class:`LinkChannel`. Concurrent flows share the capacity
fairly (fluid-flow processor sharing): with ``n`` active flows each
drains at ``bandwidth / n`` bytes per second, so congestion shows up as
queueing delay instead of a fixed serialization time.

The kernel has no event cancellation, so completions are guarded by a
generation counter: every membership change bumps ``_generation`` and
schedules a fresh completion for the new earliest finisher; completions
carrying a stale generation simply no-op. Flow bookkeeping lives in an
insertion-ordered dict keyed by a monotonically increasing flow id,
which makes the completion order of simultaneous finishers — and hence
the whole simulation — deterministic.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Optional

# Remaining-bytes fuzz: float drains can leave a flow at e.g. 1e-10
# bytes; anything at or below this is complete.
_EPSILON = 1e-6


class LinkChannel:
    """Fair-shared capacity of one directed link.

    ``submit(size, callback)`` starts a flow of ``size`` bytes; the
    callback fires (via the kernel, never re-entrantly except for the
    documented zero-cost fast path) when the flow's last byte has
    drained through the shared capacity.
    """

    def __init__(self, sim: Any, bandwidth: Optional[float], label: str = ""):
        self.sim = sim
        self.bandwidth = bandwidth
        self.label = label
        # flow id -> [remaining_bytes, callback, size, submitted_at]
        self._flows: Dict[int, List[Any]] = {}
        self._next_flow_id = 0
        self._generation = 0
        self._last_advance = 0.0
        # Tallies exported as gauges by Network.register_metrics.
        self.flows_completed = 0
        self.bytes_carried = 0.0
        self.busy_time = 0.0
        self.queueing_delay = 0.0

    @property
    def active_flows(self) -> int:
        return len(self._flows)

    def submit(self, size: float, callback: Callable[[], None]) -> None:
        """Begin transferring ``size`` bytes; run ``callback`` when done.

        Infinite-bandwidth links and empty transfers complete
        immediately and synchronously — the caller's propagation-latency
        schedule supplies the only delay, matching the flat network's
        pure-latency semantics.
        """
        self.bytes_carried += size
        if self.bandwidth is None or math.isinf(self.bandwidth) or size <= 0:
            self.flows_completed += 1
            callback()
            return
        self._advance()
        flow_id = self._next_flow_id
        self._next_flow_id += 1
        self._flows[flow_id] = [float(size), callback, float(size), self.sim.now]
        self._reschedule()

    def _advance(self) -> None:
        """Drain every active flow up to ``sim.now`` at the fair share."""
        now = self.sim.now
        elapsed = now - self._last_advance
        self._last_advance = now
        n = len(self._flows)
        if n == 0 or elapsed <= 0:
            return
        drained = elapsed * self.bandwidth / n
        for flow in self._flows.values():
            flow[0] -= drained
        self.busy_time += elapsed

    def _reschedule(self) -> None:
        """Schedule the completion of the earliest-finishing flow."""
        self._generation += 1
        if not self._flows:
            return
        n = len(self._flows)
        min_remaining = min(flow[0] for flow in self._flows.values())
        delay = max(0.0, min_remaining) * n / self.bandwidth
        self.sim.schedule(delay, self._complete, self._generation)

    def _complete(self, generation: int) -> None:
        if generation != self._generation:
            return  # membership changed since this was scheduled
        self._advance()
        # A current-generation completion *is* the scheduled finish
        # instant of the earliest flow (any membership change since
        # would have bumped the generation), so that flow is done now by
        # construction. Finishing everything within epsilon of the
        # minimum — instead of requiring the drain arithmetic to land
        # below epsilon — keeps float residue from spinning the channel
        # at one timestamp when the completion delay is smaller than the
        # clock's representable resolution (high bandwidth, late times).
        finished = []
        if self._flows:
            threshold = max(
                _EPSILON, min(flow[0] for flow in self._flows.values()) + _EPSILON
            )
            finished = [
                fid for fid, flow in self._flows.items() if flow[0] <= threshold
            ]
        callbacks = []
        for fid in finished:
            _remaining, callback, size, submitted = self._flows.pop(fid)
            self.flows_completed += 1
            transfer = self.sim.now - submitted
            self.queueing_delay += max(0.0, transfer - size / self.bandwidth)
            callbacks.append(callback)
        self._reschedule()
        # Fire after bookkeeping: a callback may submit a new flow.
        for callback in callbacks:
            callback()
