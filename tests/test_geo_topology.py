"""GeoTopology: graph construction, deterministic routing, presets."""

from __future__ import annotations

import pytest

from repro.config import ClusterConfig
from repro.errors import ConfigError, NetworkError
from repro.geo import GEO_PRESETS, GeoTopology, build_geo_topology
from repro.sim import Network, Simulator


def _topo(num_dcs: int) -> GeoTopology:
    topo = GeoTopology()
    for dc in range(num_dcs):
        topo.add_datacenter(dc)
    return topo


class TestConstruction:
    def test_duplicate_datacenter_rejected(self):
        topo = _topo(1)
        with pytest.raises(ConfigError, match="already exists"):
            topo.add_datacenter(0)

    def test_link_endpoints_must_exist(self):
        topo = _topo(2)
        with pytest.raises(ConfigError, match="not a datacenter"):
            topo.add_link(0, 7, latency=0.01)

    def test_self_loop_rejected(self):
        topo = _topo(1)
        with pytest.raises(ConfigError, match="self-loop"):
            topo.add_link(0, 0, latency=0.01)

    def test_negative_latency_rejected(self):
        topo = _topo(2)
        with pytest.raises(ConfigError, match="latency must be >= 0"):
            topo.add_link(0, 1, latency=-0.01)

    def test_zero_bandwidth_rejected(self):
        topo = _topo(2)
        with pytest.raises(ConfigError, match="bandwidth must be positive"):
            topo.add_link(0, 1, latency=0.01, bandwidth=0)

    def test_place_requires_existing_datacenter(self):
        network = Network(Simulator(), geo=_topo(2))
        with pytest.raises(ConfigError, match="cannot place 'client': no datacenter 5"):
            network.place("client", 5)

    def test_symmetric_links_add_both_directions(self):
        topo = _topo(2)
        topo.add_link(0, 1, latency=0.01)
        assert topo.link(0, 1).latency == 0.01
        assert topo.link(1, 0).latency == 0.01

    def test_asymmetric_link_is_one_way(self):
        topo = _topo(2)
        topo.add_link(0, 1, latency=0.01, symmetric=False)
        topo.link(0, 1)
        with pytest.raises(NetworkError, match="no link 1->0"):
            topo.link(1, 0)

    def test_validate_flags_partitioned_graph(self):
        topo = _topo(3)
        topo.add_link(0, 1, latency=0.01)  # dc2 is unreachable
        with pytest.raises(NetworkError, match="no route"):
            topo.validate()

    def test_validate_flags_empty_topology(self):
        with pytest.raises(ConfigError, match="no datacenters"):
            GeoTopology().validate()


class TestRouting:
    def test_chain_routes_through_every_intermediate(self):
        topo = GEO_PRESETS["chain"](4, 0.01, None)
        assert topo.path(0, 3) == (0, 1, 2, 3)
        assert topo.path_latency(0, 3) == pytest.approx(0.03)
        assert topo.path(2, 2) == (2,)
        assert topo.path_latency(2, 2) == 0.0

    def test_ring_takes_the_short_way_around(self):
        topo = GEO_PRESETS["ring"](4, 0.01, None)
        # The closing link 3-0 makes the far end one hop away.
        assert topo.path(0, 3) == (0, 3)
        assert topo.path_latency(0, 3) == pytest.approx(0.01)

    def test_mesh_is_single_hop_everywhere(self):
        topo = GEO_PRESETS["mesh"](5, 0.01, None)
        for src in range(5):
            for dst in range(5):
                if src != dst:
                    assert topo.path(src, dst) == (src, dst)

    def test_hub_relays_spoke_to_spoke_traffic(self):
        topo = GEO_PRESETS["hub"](4, 0.01, None)
        assert topo.path(1, 3) == (1, 0, 3)
        assert topo.path_latency(1, 3) == pytest.approx(0.02)

    def test_equal_latency_ties_prefer_fewer_hops(self):
        topo = _topo(3)
        topo.add_link(0, 1, latency=0.01)
        topo.add_link(1, 2, latency=0.01)
        topo.add_link(0, 2, latency=0.02)  # same total, one hop
        assert topo.path(0, 2) == (0, 2)

    def test_equal_latency_equal_hops_ties_break_lexicographically(self):
        # Diamond: 0-1-3 and 0-2-3, identical latency and hop count.
        topo = _topo(4)
        topo.add_link(0, 2, latency=0.01)
        topo.add_link(2, 3, latency=0.01)
        topo.add_link(0, 1, latency=0.01)
        topo.add_link(1, 3, latency=0.01)
        assert topo.path(0, 3) == (0, 1, 3)

    def test_routes_independent_of_link_insertion_order(self):
        a = _topo(4)
        b = _topo(4)
        links = [(0, 1, 0.01), (1, 3, 0.01), (0, 2, 0.01), (2, 3, 0.01)]
        for src, dst, lat in links:
            a.add_link(src, dst, lat)
        for src, dst, lat in reversed(links):
            b.add_link(src, dst, lat)
        for src in range(4):
            for dst in range(4):
                assert a.path(src, dst) == b.path(src, dst)

    def test_no_route_raises(self):
        topo = _topo(2)
        with pytest.raises(NetworkError, match="no route from datacenter 0 to 1"):
            topo.path(0, 1)
        with pytest.raises(NetworkError, match="no datacenter 9"):
            topo.path(9, 0)


class TestRouteInvalidation:
    """Adding structure must invalidate already-computed routes."""

    def test_add_link_reroutes_existing_paths(self):
        topo = _topo(3)
        topo.add_link(0, 1, latency=0.01)
        topo.add_link(1, 2, latency=0.01)
        assert topo.path(0, 2) == (0, 1, 2)  # warm the route table
        before = topo.version
        topo.add_link(0, 2, latency=0.005)
        assert topo.version > before
        assert topo.path(0, 2) == (0, 2)
        assert topo.path_latency(0, 2) == pytest.approx(0.005)

    def test_add_datacenter_bumps_version(self):
        topo = _topo(2)
        before = topo.version
        topo.add_datacenter(2)
        assert topo.version > before

    def test_place_does_not_bump_version(self):
        # Placement is address-level and lives on the network; routes
        # are datacenter-level.
        topo = _topo(2)
        topo.add_link(0, 1, latency=0.01)
        network = Network(Simulator(), geo=topo)
        before = topo.version
        network.place("client", 1)
        assert topo.version == before
        assert network.topology.site_of("client") == 1
        assert network.topology.site_of("unplaced") == 0


class TestPresets:
    def test_build_from_config(self):
        config = ClusterConfig(
            num_partitions=2,
            num_replicas=3,
            replication_mode="paxos",
            topology="ring",
            wan_latency=0.02,
        )
        topo = build_geo_topology(config)
        assert topo.num_datacenters == 3
        assert topo.path_latency(0, 2) == pytest.approx(0.02)

    def test_config_rejects_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown topology preset"):
            ClusterConfig(num_partitions=2, topology="torus").validate()

    def test_build_requires_a_preset(self):
        with pytest.raises(ConfigError, match="no topology preset"):
            build_geo_topology(ClusterConfig(num_partitions=2))

    def test_two_dc_ring_degenerates_to_chain(self):
        topo = GEO_PRESETS["ring"](2, 0.01, None)
        assert len(topo.links()) == 2  # one bilateral pair, no duplicate

    def test_preset_link_counts(self):
        assert len(GEO_PRESETS["chain"](4, 0.01, None).links()) == 6
        assert len(GEO_PRESETS["mesh"](4, 0.01, None).links()) == 12
        assert len(GEO_PRESETS["hub"](4, 0.01, None).links()) == 6

    def test_describe_lists_links_and_routes(self):
        topo = GEO_PRESETS["hub"](3, 0.05, 12.5e6)
        text = topo.describe()
        assert "3 datacenter(s)" in text
        assert "dc0 -> dc1: 50.0 ms" in text
        assert "dc1 -> dc0 -> dc2" in text
