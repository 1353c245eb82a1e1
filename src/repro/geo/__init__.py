"""Geo-scale topology subsystem: datacenters, routed WAN links, partial
replication, and replica-local reads.

- **topology** — :class:`GeoTopology`: datacenters + directed links with
  latency and shared bandwidth, deterministic link-state shortest-path
  routing (versioned lazy route tables). The transport is the one
  :class:`repro.sim.network.Network`: it holds the graph, places
  addresses into its datacenters, and carries cross-datacenter traffic
  hop by hop, store-and-forward (same-DC traffic takes its flat path).
- **bandwidth** — :class:`LinkChannel`: fair (processor-sharing)
  capacity of one link; congestion becomes queueing delay.
- **presets** — named topologies ("chain", "ring", "mesh", "hub")
  buildable from a :class:`repro.config.ClusterConfig`.
- **readonly** — :class:`ReadOnlyClient`: replica-local read-only
  transactions with a measured staleness bound.

See ``docs/geo.md`` for the model and its semantics.
"""

from repro.geo.bandwidth import LinkChannel
from repro.geo.presets import GEO_PRESETS, build_geo_topology
from repro.geo.readonly import ReadOnlyClient, add_read_clients
from repro.geo.topology import Datacenter, GeoLink, GeoTopology

__all__ = [
    "Datacenter",
    "GEO_PRESETS",
    "GeoLink",
    "GeoTopology",
    "LinkChannel",
    "ReadOnlyClient",
    "add_read_clients",
    "build_geo_topology",
]
