"""Named geo topologies buildable straight from a ClusterConfig.

``ClusterConfig.topology`` names one of these presets; the builder
derives the datacenter count from ``num_replicas`` (one DC per replica,
minimum one) and reuses the existing ``wan_latency`` / ``wan_bandwidth``
knobs, so a preset config stays a one-line change from a flat one (the
LAN inside each datacenter is the network's flat topology).

- ``chain``: dc0 - dc1 - ... - dcN-1 in a line; the worst-case diameter,
  every batch to the far end crosses every link (contention collapse).
- ``ring``:  the chain plus a closing link; two disjoint routes exist,
  routing picks the deterministic shortest one.
- ``mesh``:  full bilateral connectivity; one hop everywhere, the
  closest model to the flat WAN pair.
- ``hub``:   dc0 is the hub, every other DC is a spoke; spoke-to-spoke
  traffic relays through dc0 and contends on its links.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional

from repro.errors import ConfigError
from repro.geo.topology import GeoTopology

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.config import ClusterConfig

Builder = Callable[[int, float, Optional[float]], GeoTopology]


def _base(num_dcs: int) -> GeoTopology:
    topo = GeoTopology()
    for dc in range(num_dcs):
        topo.add_datacenter(dc)
    return topo


def chain(num_dcs: int, wan_latency: float, wan_bandwidth: Optional[float]) -> GeoTopology:
    topo = _base(num_dcs)
    for dc in range(num_dcs - 1):
        topo.add_link(dc, dc + 1, wan_latency, wan_bandwidth)
    return topo


def ring(num_dcs: int, wan_latency: float, wan_bandwidth: Optional[float]) -> GeoTopology:
    topo = chain(num_dcs, wan_latency, wan_bandwidth)
    # Close the loop; a 2-DC "ring" is just the chain (the closing link
    # would duplicate the existing one).
    if num_dcs > 2:
        topo.add_link(num_dcs - 1, 0, wan_latency, wan_bandwidth)
    return topo


def mesh(num_dcs: int, wan_latency: float, wan_bandwidth: Optional[float]) -> GeoTopology:
    topo = _base(num_dcs)
    for src in range(num_dcs):
        for dst in range(src + 1, num_dcs):
            topo.add_link(src, dst, wan_latency, wan_bandwidth)
    return topo


def hub(num_dcs: int, wan_latency: float, wan_bandwidth: Optional[float]) -> GeoTopology:
    topo = _base(num_dcs)
    for spoke in range(1, num_dcs):
        topo.add_link(0, spoke, wan_latency, wan_bandwidth)
    return topo


GEO_PRESETS: Dict[str, Builder] = {
    "chain": chain,
    "ring": ring,
    "mesh": mesh,
    "hub": hub,
}


def build_geo_topology(config: "ClusterConfig") -> GeoTopology:
    """Instantiate ``config.topology`` with one datacenter per replica."""
    if config.topology is None:
        raise ConfigError("config has no topology preset set")
    try:
        builder = GEO_PRESETS[config.topology]
    except KeyError:
        raise ConfigError(
            f"unknown topology preset {config.topology!r}; "
            f"choose from {', '.join(sorted(GEO_PRESETS))}"
        ) from None
    num_dcs = max(1, config.num_replicas)
    topo = builder(num_dcs, config.wan_latency, config.wan_bandwidth)
    topo.validate()
    return topo
