"""Simulated cluster network: latency + bandwidth, per-link FIFO delivery.

Nodes register a handler under an address (any hashable id). ``send``
computes a delivery time from the link's latency and the message size
over the link's bandwidth, then clamps it to preserve FIFO ordering per
directed link — TCP-like ordering, which the Calvin scheduler's
remote-read protocol and Paxos both assume.

Topologies map each address to a *site* (datacenter); ``Network.place``
is the one way placements are written. Intra-site links use the LAN
profile, inter-site links the WAN profile; this is how the replication
experiment models geographically distant replicas.

Optionally the network also holds a routed WAN graph
(:class:`repro.geo.topology.GeoTopology`, one vertex per site). Traffic
between addresses in *different* sites then leaves the flat path: it is
carried hop by hop along the graph's deterministic shortest path,
store-and-forward, each hop draining its bytes through that link's
shared :class:`~repro.geo.bandwidth.LinkChannel`. Fair bandwidth sharing
can complete a small late message before a large early one, so the
routed path keeps TCP-style ordering with a reorder buffer: sends take a
per-pair sequence number and final delivery is released strictly in
send order. Same-site traffic always takes the flat path.

Both paths share one contract: the fault filter is consulted once per
send (drop/hold decided there), one FIFO clamp per directed address
pair, and one delivery tail in which ``extra_delay`` lands *after* the
FIFO point (deliberate reordering) and ``copies`` fan out.

``send`` is on the critical path of every message hop, so the
common (fault-free, flat) case avoids recomputation: link specs are
memoised per address pair, transfer times per (spec, size) — all link
profiles are jitter-free, so the sample for a given size never changes —
and same-tick deliveries on one link coalesce into a single heap entry
when that is provably order-preserving (the pending batch is still the
most recently scheduled entry and the arrival times are identical).
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Dict, Hashable, List, Optional, Tuple

from repro.errors import ConfigError, NetworkError
from repro.geo.bandwidth import LinkChannel
from repro.obs.recorder import NULL_RECORDER
from repro.obs.spans import CAT_NET, SpanKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.geo.topology import GeoTopology

Address = Hashable
Handler = Callable[[Address, Any], None]


@dataclass(slots=True)
class DeliveryVerdict:
    """What a fault filter decided about one message.

    - ``drop``: the message vanishes (lossy link / crashed destination).
    - ``hold``: the filter takes custody (e.g. a network partition that
      buffers traffic TCP-style until it heals and re-sends it).
    - ``extra_delay``: added *after* the FIFO clamp, so a delayed message
      can arrive behind later traffic on the same link (reordering).
    - ``copies``: total deliveries (2+ = duplication).
    """

    drop: bool = False
    hold: bool = False
    extra_delay: float = 0.0
    copies: int = 1


DELIVER = DeliveryVerdict()

# filter(now, src, dst, message, size) -> DeliveryVerdict
FaultFilter = Callable[[float, Address, Address, Any, int], DeliveryVerdict]


@dataclass(frozen=True)
class LinkSpec:
    """One directed link class: latency in seconds, bandwidth in bytes/sec."""

    latency: float
    bandwidth: Optional[float] = None  # None = infinite

    def transfer_time(self, size: int) -> float:
        if self.bandwidth is None or size <= 0:
            return self.latency
        return self.latency + size / self.bandwidth


class Topology:
    """Maps addresses to sites and (site, site) pairs to link specs."""

    def __init__(self, local: LinkSpec, intra_site: LinkSpec, inter_site: LinkSpec):
        self.local = local
        self.intra_site = intra_site
        self.inter_site = inter_site
        self._sites: Dict[Address, int] = {}
        # Memoised link() results; invalidated whenever placement
        # changes (placements happen at setup time, not per-send).
        self._link_cache: Dict[Tuple[Address, Address], LinkSpec] = {}
        # Bumped on every mutation so downstream caches (the network's
        # per-route transfer times) know to invalidate themselves.
        self.version = 0

    def place(self, address: Address, site: int) -> None:
        """Assign ``address`` to datacenter ``site``."""
        self._sites[address] = site
        self._link_cache.clear()
        self.version += 1

    def site_of(self, address: Address) -> int:
        return self._sites.get(address, 0)

    def link(self, src: Address, dst: Address) -> LinkSpec:
        key = (src, dst)
        spec = self._link_cache.get(key)
        if spec is None:
            spec = self._link_cache[key] = self._compute_link(src, dst)
        return spec

    def _compute_link(self, src: Address, dst: Address) -> LinkSpec:
        if src == dst:
            return self.local
        if self.site_of(src) == self.site_of(dst):
            return self.intra_site
        return self.inter_site


def lan_topology(latency: float = 0.0005, bandwidth: float = 125e6) -> Topology:
    """A single-datacenter topology (default: 0.5 ms, 1 Gbps)."""
    return Topology(
        local=LinkSpec(latency=0.0, bandwidth=None),
        intra_site=LinkSpec(latency=latency, bandwidth=bandwidth),
        inter_site=LinkSpec(latency=latency, bandwidth=bandwidth),
    )


def wan_topology(
    lan_latency: float = 0.0005,
    wan_latency: float = 0.05,
    lan_bandwidth: float = 125e6,
    wan_bandwidth: float = 12.5e6,
) -> Topology:
    """Multi-datacenter topology (default WAN one-way latency 50 ms)."""
    return Topology(
        local=LinkSpec(latency=0.0, bandwidth=None),
        intra_site=LinkSpec(latency=lan_latency, bandwidth=lan_bandwidth),
        inter_site=LinkSpec(latency=wan_latency, bandwidth=wan_bandwidth),
    )


class Network:
    """Message transport over a :class:`Topology` on a simulator, with
    cross-site traffic routed over ``geo`` when a graph is attached."""

    def __init__(
        self,
        sim,
        topology: Optional[Topology] = None,
        geo: Optional["GeoTopology"] = None,
        tracer=NULL_RECORDER,
    ):
        self.sim = sim
        self.topology = topology or lan_topology()
        self.geo = geo
        self.tracer = tracer
        self._tracing = tracer.enabled
        self._handlers: Dict[Address, Handler] = {}
        self._last_arrival: Dict[Tuple[Address, Address], float] = {}
        self.messages_sent = 0
        self.bytes_sent = 0
        # Fault-injection hook: consulted once per send (see faults/).
        self.fault_filter: Optional[FaultFilter] = None
        self.messages_dropped = 0
        self.messages_held = 0
        self.messages_duplicated = 0
        self.messages_delayed = 0
        self.batched_deliveries = 0
        # Minimum spacing between same-link deliveries; preserves FIFO
        # while keeping equal-latency messages effectively simultaneous.
        self._fifo_epsilon = 1e-9
        # (src, dst, size) -> transfer time, valid for one topology
        # version. Specs are frozen and jitter-free, so within a version
        # a sample never goes stale.
        self._route_cache: Dict[Tuple[Address, Address, int], float] = {}
        self._route_version = self.topology.version
        # link -> (arrival, seq-at-schedule, messages) for the delivery
        # batch most recently scheduled on that link (see send()).
        self._pending_batches: Dict[
            Tuple[Address, Address], Tuple[float, int, List[Any]]
        ] = {}
        # Routed path: (src_dc, dst_dc) -> shared capacity of that
        # directed link, and the per-pair reorder buffer.
        self._channels: Dict[Tuple[int, int], LinkChannel] = {}
        self._pair_send_seq: Dict[Tuple[Address, Address], int] = {}
        self._pair_next: Dict[Tuple[Address, Address], int] = {}
        self._pair_ready: Dict[
            Tuple[Address, Address], Dict[int, Tuple[Any, DeliveryVerdict]]
        ] = {}
        self.wan_messages = 0
        self.wan_bytes = 0
        self.hops_forwarded = 0
        self.fifo_reorders = 0

    def register(self, address: Address, handler: Handler) -> None:
        """Attach ``handler(src, message)`` as the receiver for ``address``."""
        if address in self._handlers:
            raise NetworkError(f"address already registered: {address!r}")
        self._handlers[address] = handler

    def unregister(self, address: Address) -> None:
        """Detach ``address`` (e.g. to simulate a crashed node)."""
        self._handlers.pop(address, None)

    def place(self, address: Address, site: int) -> None:
        """Pin ``address`` into datacenter ``site`` (default: site 0)."""
        if self.geo is not None and not self.geo.has_datacenter(site):
            raise ConfigError(f"cannot place {address!r}: no datacenter {site}")
        self.topology.place(address, site)

    def send(self, src: Address, dst: Address, message: Any, size: int = 256) -> None:
        """Deliver ``message`` from ``src`` to ``dst`` after the link delay.

        Messages to unregistered destinations are dropped (the
        destination may have crashed); senders needing acknowledgement
        implement it at the protocol level, exactly as on a real network.
        """
        self.messages_sent += 1
        self.bytes_sent += size
        path = None
        if self.geo is not None:
            site_of = self.topology.site_of
            src_site, dst_site = site_of(src), site_of(dst)
            if src_site != dst_site:
                self.wan_messages += 1
                self.wan_bytes += size
                path = self.geo.path(src_site, dst_site)
        verdict = DELIVER
        if self.fault_filter is not None:
            verdict = self.fault_filter(self.sim.now, src, dst, message, size)
            if verdict.drop:
                self.messages_dropped += 1
                return
            if verdict.hold:
                # The filter has taken custody (it re-sends on heal).
                self.messages_held += 1
                return
        if path is not None:
            pair = (src, dst)
            # Sequence numbers are allocated only for messages actually
            # in flight — a dropped/held message must not stall its
            # successors.
            seq = self._pair_send_seq.get(pair, 0)
            self._pair_send_seq[pair] = seq + 1
            self._forward(pair, message, size, path, 0, verdict, seq)
            return
        sim = self.sim
        cache = self._route_cache
        version = self.topology.version
        if version != self._route_version:
            cache.clear()
            self._route_version = version
        route = (src, dst, size)
        delay = cache.get(route)
        if delay is None:
            delay = cache[route] = self.topology.link(src, dst).transfer_time(size)
        arrival = sim.now + delay
        key = (src, dst)
        previous = self._last_arrival.get(key)
        if previous is not None and arrival <= previous:
            arrival = previous + self._fifo_epsilon
        self._last_arrival[key] = arrival
        if verdict.extra_delay == 0.0 and verdict.copies == 1:
            # Fast path: coalesce into the link's pending delivery batch
            # when provably order-preserving — the batch arrives at the
            # exact same time AND its heap entry is still the most
            # recently scheduled entry overall (no other event could
            # interleave between the batch and this message).
            batch = self._pending_batches.get(key)
            if batch is not None and batch[0] == arrival and batch[1] == sim._seq:
                batch[2].append(message)
                self.batched_deliveries += 1
                return
            messages = [message]
            # Inlined schedule_at: arrival >= now by construction (link
            # delay is non-negative and the FIFO clamp only moves it
            # forward), so the past-clamp branch can never fire.
            sim._seq = seq = sim._seq + 1
            heappush(sim._heap, (arrival, seq, self._deliver_batch, (key, messages), None))
            self._pending_batches[key] = (arrival, seq, messages)
            return
        self._schedule_delivery(src, dst, message, arrival, verdict)

    def _schedule_delivery(
        self,
        src: Address,
        dst: Address,
        message: Any,
        arrival: float,
        verdict: DeliveryVerdict,
    ) -> None:
        """Schedule the delivery of a message past its FIFO point.

        Extra delay lands *after* the FIFO clamp and is not recorded in
        ``_last_arrival``: a later undelayed message can overtake this
        one, which is exactly the reordering fault being modelled.
        """
        if verdict.extra_delay > 0:
            self.messages_delayed += 1
            arrival += verdict.extra_delay
        if verdict.copies > 1:
            self.messages_duplicated += verdict.copies - 1
        for copy in range(max(1, verdict.copies)):
            self.sim.schedule_at(
                arrival + copy * self._fifo_epsilon, self._deliver, src, dst, message
            )

    def _deliver_batch(
        self, key: Tuple[Address, Address], messages: List[Any]
    ) -> None:
        batch = self._pending_batches.get(key)
        if batch is not None and batch[2] is messages:
            del self._pending_batches[key]
        src, dst = key
        handlers = self._handlers
        for message in messages:
            # Re-resolve per message: a handler may unregister its own
            # address mid-batch (crash during delivery).
            handler = handlers.get(dst)
            if handler is not None:
                handler(src, message)

    def _deliver(self, src: Address, dst: Address, message: Any) -> None:
        handler = self._handlers.get(dst)
        if handler is not None:
            handler(src, message)

    # -- routed path -------------------------------------------------------

    def _forward(
        self,
        pair: Tuple[Address, Address],
        message: Any,
        size: int,
        path: Tuple[int, ...],
        index: int,
        verdict: DeliveryVerdict,
        seq: int,
    ) -> None:
        """Carry the message over link ``path[index] -> path[index+1]``:
        drain its bytes through the shared channel, then propagate."""
        hop_src, hop_dst = path[index], path[index + 1]
        link = self.geo.link(hop_src, hop_dst)
        channel = self._channel(hop_src, hop_dst)
        self.hops_forwarded += 1
        sim = self.sim
        start = sim.now

        def transferred() -> None:
            sim.schedule(link.latency, arrived)

        def arrived() -> None:
            if self._tracing:
                self.tracer.record(
                    SpanKind.HOP,
                    start,
                    sim.now,
                    cat=CAT_NET,
                    detail=(hop_src, hop_dst),
                )
            if index + 2 < len(path):
                self._forward(pair, message, size, path, index + 1, verdict, seq)
            else:
                self._arrived_at_destination(pair, message, verdict, seq)

        channel.submit(size, transferred)

    def _channel(self, src_dc: int, dst_dc: int) -> LinkChannel:
        key = (src_dc, dst_dc)
        link = self.geo.link(src_dc, dst_dc)
        channel = self._channels.get(key)
        if channel is None or channel.bandwidth != link.bandwidth:
            # New link, or a setup-time capacity change: in-flight flows
            # on a replaced channel finish at the old capacity.
            channel = self._channels[key] = LinkChannel(
                self.sim, link.bandwidth, f"dc{src_dc}-dc{dst_dc}"
            )
        return channel

    def _arrived_at_destination(
        self,
        pair: Tuple[Address, Address],
        message: Any,
        verdict: DeliveryVerdict,
        seq: int,
    ) -> None:
        expected = self._pair_next.get(pair, 0)
        if seq != expected:
            # A later send finished its transfer first (fair sharing let
            # it overtake); park it until its predecessors land.
            self.fifo_reorders += 1
        ready = self._pair_ready.setdefault(pair, {})
        ready[seq] = (message, verdict)
        src, dst = pair
        while expected in ready:
            msg, vd = ready.pop(expected)
            expected += 1
            arrival = self.sim.now
            previous = self._last_arrival.get(pair)
            if previous is not None and arrival <= previous:
                arrival = previous + self._fifo_epsilon
            self._last_arrival[pair] = arrival
            self._schedule_delivery(src, dst, msg, arrival, vd)
        self._pair_next[pair] = expected

    # -- metrics -----------------------------------------------------------

    def _channel_stat(self, key: Tuple[int, int], attr: str) -> float:
        channel = self._channels.get(key)
        return getattr(channel, attr) if channel is not None else 0.0

    def _utilization(self, key: Tuple[int, int]) -> float:
        channel = self._channels.get(key)
        if channel is None or self.sim.now <= 0:
            return 0.0
        return channel.busy_time / self.sim.now

    def register_metrics(self, registry, prefix: str = "net") -> None:
        """Expose transport tallies as gauges in ``registry`` (the routed
        ones only when a graph is attached)."""
        registry.gauge(f"{prefix}.messages_sent", lambda: self.messages_sent)
        registry.gauge(f"{prefix}.bytes_sent", lambda: self.bytes_sent)
        registry.gauge(f"{prefix}.messages_dropped", lambda: self.messages_dropped)
        registry.gauge(f"{prefix}.messages_held", lambda: self.messages_held)
        registry.gauge(f"{prefix}.messages_duplicated", lambda: self.messages_duplicated)
        registry.gauge(f"{prefix}.messages_delayed", lambda: self.messages_delayed)
        registry.gauge(f"{prefix}.batched_deliveries", lambda: self.batched_deliveries)
        if self.geo is None:
            return
        registry.gauge(f"{prefix}.wan_messages", lambda: self.wan_messages)
        registry.gauge(f"{prefix}.wan_bytes", lambda: self.wan_bytes)
        registry.gauge(f"{prefix}.hops_forwarded", lambda: self.hops_forwarded)
        registry.gauge(f"{prefix}.fifo_reorders", lambda: self.fifo_reorders)
        for link in self.geo.links():
            key = (link.src, link.dst)
            name = f"{prefix}.link.dc{link.src}-dc{link.dst}"
            registry.gauge(
                f"{name}.bytes", lambda k=key: self._channel_stat(k, "bytes_carried")
            )
            registry.gauge(
                f"{name}.flows", lambda k=key: self._channel_stat(k, "flows_completed")
            )
            registry.gauge(
                f"{name}.busy_time", lambda k=key: self._channel_stat(k, "busy_time")
            )
            registry.gauge(
                f"{name}.queueing_delay",
                lambda k=key: self._channel_stat(k, "queueing_delay"),
            )
            registry.gauge(f"{name}.utilization", lambda k=key: self._utilization(k))
