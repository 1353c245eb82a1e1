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

``send`` is on the critical path of every message hop, so everything
the network knows about a directed address pair lives in one record,
:class:`_Pair`, found by one dictionary lookup: the FIFO clamp, the
link spec and its transfer time per message size (all link profiles are
jitter-free, so the sample for a given size never changes; re-read when
the topology's version moves), the destination's handler, and the routed
path's sequence numbers and reorder buffer. A fault-free flat send is
one heap push of ``pair.deliver`` (one lane append when the link's
delay is zero). ``register``/``unregister`` update
the handler on every record addressed to that destination, so a message
reaches whatever is registered at delivery time — a crashed receiver
drops what is still in flight to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappush
from math import inf
from typing import TYPE_CHECKING, Any, Callable, Dict, Hashable, Optional, Tuple

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
        # Bumped on every mutation so the network's per-pair records
        # know to re-read their link.
        self.version = 0

    def place(self, address: Address, site: int) -> None:
        """Assign ``address`` to datacenter ``site``."""
        self._sites[address] = site
        self.version += 1

    def site_of(self, address: Address) -> int:
        return self._sites.get(address, 0)

    def link(self, src: Address, dst: Address) -> LinkSpec:
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


class _Pair:
    """The network's one record for a directed ``src -> dst`` pair.

    ``last`` is the FIFO clamp (the latest arrival scheduled on the
    pair); it outlives topology changes. ``version``/``spec``/``delays``
    cache the link and its transfer time per message size for one
    topology version. ``handler`` mirrors the destination's registration.
    ``send_seq``/``next_seq``/``ready`` are the routed path's per-pair
    sequence numbers and reorder buffer.
    """

    __slots__ = (
        "src", "dst", "handler", "last", "version", "spec", "delays",
        "send_seq", "next_seq", "ready",
    )

    def __init__(self, src: Address, dst: Address, handler: Optional[Handler]):
        self.src = src
        self.dst = dst
        self.handler = handler
        self.last = -inf
        self.version = -1
        self.spec: Optional[LinkSpec] = None
        self.delays: Dict[int, float] = {}
        self.send_seq = 0
        self.next_seq = 0
        self.ready: Dict[int, Tuple[Any, DeliveryVerdict]] = {}

    def deliver(self, message: Any) -> None:
        handler = self.handler
        if handler is not None:
            handler(self.src, message)


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
        self._pairs: Dict[Tuple[Address, Address], _Pair] = {}
        self.messages_sent = 0
        self.bytes_sent = 0
        # Parked sends per held source, in order, and their tally.
        self._holds: Dict[Address, list] = {}
        self.parked_sends: Dict[Address, int] = {}
        # Fault-injection hook: consulted once per send (see faults/).
        self.fault_filter: Optional[FaultFilter] = None
        self.messages_dropped = 0
        self.messages_held = 0
        self.messages_duplicated = 0
        self.messages_delayed = 0
        # Minimum spacing between same-link deliveries; preserves FIFO
        # while keeping equal-latency messages effectively simultaneous.
        self._fifo_epsilon = 1e-9
        # Routed path: (src_dc, dst_dc) -> shared capacity of that
        # directed link.
        self._channels: Dict[Tuple[int, int], LinkChannel] = {}
        self.wan_messages = 0
        self.wan_bytes = 0
        self.hops_forwarded = 0
        self.fifo_reorders = 0

    def register(self, address: Address, handler: Handler) -> None:
        """Attach ``handler(src, message)`` as the receiver for ``address``."""
        if address in self._handlers:
            raise NetworkError(f"address already registered: {address!r}")
        self._handlers[address] = handler
        self._set_handler(address, handler)

    def unregister(self, address: Address) -> None:
        """Detach ``address`` (e.g. to simulate a crashed node)."""
        self._handlers.pop(address, None)
        self._set_handler(address, None)

    def _set_handler(self, address: Address, handler: Optional[Handler]) -> None:
        # Setup and crash/restart only, so a walk over every pair is fine.
        for pair in self._pairs.values():
            if pair.dst == address:
                pair.handler = handler

    def _pair(self, src: Address, dst: Address) -> _Pair:
        """The record for ``src -> dst``, created on first use, with its
        link re-read for the topology's current version."""
        pair = self._pairs.get((src, dst))
        if pair is None:
            pair = self._pairs[src, dst] = _Pair(src, dst, self._handlers.get(dst))
        topology = self.topology
        pair.version = topology.version
        pair.spec = topology.link(src, dst)
        pair.delays = {}
        return pair

    def place(self, address: Address, site: int) -> None:
        """Pin ``address`` into datacenter ``site`` (default: site 0)."""
        if self.geo is not None and not self.geo.has_datacenter(site):
            raise ConfigError(f"cannot place {address!r}: no datacenter {site}")
        self.topology.place(address, site)

    def hold(self, src: Address) -> None:
        """Park ``src``'s sends until :meth:`release` (a crashed node's:
        its deterministic processes would regenerate them on recovery)."""
        self._holds.setdefault(src, [])

    def release(self, src: Address) -> None:
        """Stop holding ``src``; re-send its parked sends in order."""
        for dst, message, size in self._holds.pop(src, ()):
            self.send(src, dst, message, size)

    def resend(self, src: Address, dst: Address, message: Any, size: int) -> None:
        """:meth:`send` past any hold: what a fault filter took custody of
        before ``src`` crashed is not a send made while crashed."""
        holds, self._holds = self._holds, {}
        self.send(src, dst, message, size)
        self._holds = holds

    def send(self, src: Address, dst: Address, message: Any, size: int = 256) -> None:
        """Deliver ``message`` from ``src`` to ``dst`` after the link delay.

        A held source's send is parked before any counter moves, so it
        is counted once, at :meth:`release`. Messages to unregistered
        destinations are dropped (the destination may have crashed);
        senders needing acknowledgement implement it at the protocol
        level, exactly as on a real network.
        """
        if self._holds and src in self._holds:
            self._holds[src].append((dst, message, size))
            self.parked_sends[src] = self.parked_sends.get(src, 0) + 1
            return
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
        pair = self._pairs.get((src, dst))
        if pair is None or pair.version != self.topology.version:
            pair = self._pair(src, dst)
        if path is not None:
            # Sequence numbers are allocated only for messages actually
            # in flight — a dropped/held message must not stall its
            # successors.
            seq = pair.send_seq
            pair.send_seq = seq + 1
            self._forward(pair, message, size, path, 0, verdict, seq)
            return
        sim = self.sim
        delay = pair.delays.get(size)
        if delay is None:
            delay = pair.delays[size] = pair.spec.transfer_time(size)
        arrival = sim.now + delay
        if arrival <= pair.last:
            arrival = pair.last + self._fifo_epsilon
        pair.last = arrival
        if verdict.extra_delay == 0.0 and verdict.copies == 1:
            # Inlined schedule_at: arrival >= now by construction (link
            # delay is non-negative and the FIFO clamp only moves it
            # forward), so the past-clamp branch can never fire. A
            # zero-latency arrival is due now and joins the kernel's lane.
            if arrival == sim.now:
                sim._lane.append((pair.deliver, (message,), None))
            else:
                sim._seq = seq = sim._seq + 1
                heappush(sim._heap, (arrival, seq, pair.deliver, (message,), None))
            return
        self._schedule_delivery(pair, message, arrival, verdict)

    def _schedule_delivery(
        self, pair: _Pair, message: Any, arrival: float, verdict: DeliveryVerdict
    ) -> None:
        """Schedule the delivery of a message past its FIFO point.

        Extra delay lands *after* the FIFO clamp and is not recorded in
        ``pair.last``: a later undelayed message can overtake this one,
        which is exactly the reordering fault being modelled.
        """
        if verdict.extra_delay > 0:
            self.messages_delayed += 1
            arrival += verdict.extra_delay
        if verdict.copies > 1:
            self.messages_duplicated += verdict.copies - 1
        for copy in range(max(1, verdict.copies)):
            self.sim.schedule_at(
                arrival + copy * self._fifo_epsilon, pair.deliver, message
            )

    # -- routed path -------------------------------------------------------

    def _forward(
        self,
        pair: _Pair,
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
        self, pair: _Pair, message: Any, verdict: DeliveryVerdict, seq: int
    ) -> None:
        expected = pair.next_seq
        if seq != expected:
            # A later send finished its transfer first (fair sharing let
            # it overtake); park it until its predecessors land.
            self.fifo_reorders += 1
        ready = pair.ready
        ready[seq] = (message, verdict)
        while expected in ready:
            msg, vd = ready.pop(expected)
            expected += 1
            arrival = self.sim.now
            if arrival <= pair.last:
                arrival = pair.last + self._fifo_epsilon
            pair.last = arrival
            self._schedule_delivery(pair, msg, arrival, vd)
        pair.next_seq = expected

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
