"""Geo-scale topology: datacenters, routed WAN links, deterministic paths.

The flat :class:`repro.sim.network.Topology` knows two link classes (LAN
and WAN) and nothing about *where* traffic goes between them. A
:class:`GeoTopology` instead is an explicit graph: datacenters are
vertices, directed :class:`GeoLink` edges carry one-way propagation
latency and a shared bandwidth capacity, and messages between
datacenters follow link-state shortest paths with store-and-forward
multi-hop forwarding (see :class:`repro.sim.network.Network`, which
holds the graph and places addresses into its datacenters).

Routing is deterministic by construction: Dijkstra settles vertices on
the key ``(latency, hops, path)`` — ties on total latency break first
toward fewer hops, then toward the lexicographically smallest path of
datacenter ids — so every replica computes the same route table from
the same graph, an invariant the trace digests rely on.

Route tables are lazy and versioned: any structural mutation (adding a
datacenter or link) bumps ``version`` and invalidates them, the geo
namespace of the flat network's route-cache invalidation story.
Placement is address-level and lives on the network, so moving an
address cannot stale a route.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigError, NetworkError


@dataclass(frozen=True)
class Datacenter:
    """One site: an integer id plus an optional human-readable name."""

    id: int
    name: str = ""

    def label(self) -> str:
        return self.name or f"dc{self.id}"


@dataclass(frozen=True)
class GeoLink:
    """One *directed* WAN link.

    ``latency`` is one-way propagation time; ``bandwidth`` is the link
    capacity in bytes/second, shared fairly by concurrent flows
    (``None`` = infinite — a pure-latency link).
    """

    src: int
    dst: int
    latency: float
    bandwidth: Optional[float] = None

    def validate(self) -> None:
        if self.src == self.dst:
            raise ConfigError(f"link {self.src}->{self.dst} is a self-loop")
        if self.latency < 0:
            raise ConfigError(f"link {self.src}->{self.dst}: latency must be >= 0")
        if self.bandwidth is not None and self.bandwidth <= 0:
            raise ConfigError(
                f"link {self.src}->{self.dst}: bandwidth must be positive or None"
            )


class GeoTopology:
    """A datacenter graph with deterministic link-state routing."""

    def __init__(self) -> None:
        self._datacenters: Dict[int, Datacenter] = {}
        self._links: Dict[Tuple[int, int], GeoLink] = {}
        # Structure version: bumped on datacenter/link mutation, checked
        # by the lazy route tables below.
        self.version = 0
        # (src, dst) -> settled shortest path / its total latency; valid
        # for one structure version. _routed_sources marks single-source
        # computations already folded in (dict, not set: values are
        # iterated nowhere, and a dict iterates in insertion order).
        self._paths: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        self._latencies: Dict[Tuple[int, int], float] = {}
        self._routed_sources: Dict[int, bool] = {}
        self._routes_version = 0

    # -- construction -----------------------------------------------------

    def add_datacenter(self, dc_id: int, name: str = "") -> Datacenter:
        if dc_id in self._datacenters:
            raise ConfigError(f"datacenter {dc_id} already exists")
        dc = Datacenter(dc_id, name)
        self._datacenters[dc_id] = dc
        self.version += 1
        return dc

    def add_link(
        self,
        src: int,
        dst: int,
        latency: float,
        bandwidth: Optional[float] = None,
        symmetric: bool = True,
    ) -> None:
        """Connect two datacenters; ``symmetric`` adds both directions."""
        for dc in (src, dst):
            if dc not in self._datacenters:
                raise ConfigError(f"link endpoint {dc} is not a datacenter")
        pairs = ((src, dst), (dst, src)) if symmetric else ((src, dst),)
        for a, b in pairs:
            link = GeoLink(a, b, latency, bandwidth)
            link.validate()
            self._links[(a, b)] = link
        self.version += 1

    # -- queries ----------------------------------------------------------

    @property
    def num_datacenters(self) -> int:
        return len(self._datacenters)

    def has_datacenter(self, dc_id: int) -> bool:
        return dc_id in self._datacenters

    def datacenters(self) -> List[Datacenter]:
        return [self._datacenters[dc_id] for dc_id in sorted(self._datacenters)]

    def links(self) -> List[GeoLink]:
        """Every directed link, ordered by (src, dst)."""
        return [self._links[key] for key in sorted(self._links)]

    def link(self, src: int, dst: int) -> GeoLink:
        try:
            return self._links[(src, dst)]
        except KeyError:
            raise NetworkError(f"no link {src}->{dst} in topology") from None

    # -- routing ----------------------------------------------------------

    def path(self, src_dc: int, dst_dc: int) -> Tuple[int, ...]:
        """The routed datacenter sequence from ``src_dc`` to ``dst_dc``
        (inclusive of both endpoints; length 1 when they are equal)."""
        self._ensure_routes(src_dc)
        try:
            return self._paths[(src_dc, dst_dc)]
        except KeyError:
            raise NetworkError(
                f"no route from datacenter {src_dc} to {dst_dc}"
            ) from None

    def path_latency(self, src_dc: int, dst_dc: int) -> float:
        """Total propagation latency along :meth:`path` (bandwidth excluded)."""
        self._ensure_routes(src_dc)
        try:
            return self._latencies[(src_dc, dst_dc)]
        except KeyError:
            raise NetworkError(
                f"no route from datacenter {src_dc} to {dst_dc}"
            ) from None

    def _ensure_routes(self, src_dc: int) -> None:
        if self._routes_version != self.version:
            self._paths.clear()
            self._latencies.clear()
            self._routed_sources.clear()
            self._routes_version = self.version
        if src_dc not in self._routed_sources:
            self._compute_from(src_dc)
            self._routed_sources[src_dc] = True

    def _compute_from(self, src_dc: int) -> None:
        """Single-source Dijkstra with fully deterministic tie-breaks.

        Heap entries are ``(latency, hops, path)``; the first pop for a
        vertex is therefore the minimum of that triple, which is unique
        — path tuples are distinct — so equal-latency routes always
        resolve the same way regardless of insertion order.
        """
        if src_dc not in self._datacenters:
            raise NetworkError(f"no datacenter {src_dc} in topology")
        adjacency: Dict[int, List[GeoLink]] = {}
        for key in sorted(self._links):
            link = self._links[key]
            adjacency.setdefault(link.src, []).append(link)
        settled: Dict[int, Tuple[float, int, Tuple[int, ...]]] = {}
        heap: List[Tuple[float, int, Tuple[int, ...]]] = [(0.0, 0, (src_dc,))]
        while heap:
            cost, hops, path = heappop(heap)
            vertex = path[-1]
            if vertex in settled:
                continue
            settled[vertex] = (cost, hops, path)
            for link in adjacency.get(vertex, ()):
                if link.dst not in settled:
                    heappush(heap, (cost + link.latency, hops + 1, path + (link.dst,)))
        for vertex in sorted(settled):
            cost, _hops, path = settled[vertex]
            self._paths[(src_dc, vertex)] = path
            self._latencies[(src_dc, vertex)] = cost

    def validate(self) -> None:
        """Check the graph is non-empty and fully routable."""
        if not self._datacenters:
            raise ConfigError("topology has no datacenters")
        for link in self.links():
            link.validate()
        for src in sorted(self._datacenters):
            for dst in sorted(self._datacenters):
                self.path(src, dst)  # raises NetworkError on a partition

    def describe(self) -> str:
        """Human-readable dump used by ``repro topology show``."""
        lines = [f"{self.num_datacenters} datacenter(s), {len(self._links)} directed link(s)"]
        for dc in self.datacenters():
            lines.append(f"  {dc.label()} (id {dc.id})")
        lines.append("links:")
        for link in self.links():
            bw = "inf" if link.bandwidth is None else f"{link.bandwidth / 1e6:.2f} MB/s"
            lines.append(
                f"  dc{link.src} -> dc{link.dst}: "
                f"{link.latency * 1e3:.1f} ms, {bw}"
            )
        lines.append("routes:")
        for src in sorted(self._datacenters):
            for dst in sorted(self._datacenters):
                if src == dst:
                    continue
                hops = " -> ".join(f"dc{dc}" for dc in self.path(src, dst))
                lines.append(
                    f"  {hops}: {self.path_latency(src, dst) * 1e3:.1f} ms"
                )
        return "\n".join(lines)
