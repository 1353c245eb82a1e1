"""The routed network path: multi-hop transport, bandwidth sharing, FIFO,
caches, and the fault verdicts it shares with the flat path."""

from __future__ import annotations

import pytest

from repro.geo import GeoTopology, LinkChannel
from repro.obs import MetricsRegistry, SpanKind, TraceRecorder
from repro.sim import Simulator
from repro.config import ClusterConfig
from repro.core.cluster import CalvinCluster
from repro.sim.network import DELIVER, DeliveryVerdict, Network, wan_topology
from repro.workloads import Microbenchmark


def _chain_topo(num_dcs: int, latency: float = 0.01, bandwidth=None) -> GeoTopology:
    topo = GeoTopology()
    for dc in range(num_dcs):
        topo.add_datacenter(dc)
    for dc in range(num_dcs - 1):
        topo.add_link(dc, dc + 1, latency, bandwidth)
    return topo


def _geo_net(topo: GeoTopology, tracer=None):
    sim = Simulator()
    net = (
        Network(sim, geo=topo, tracer=tracer)
        if tracer is not None
        else Network(sim, geo=topo)
    )
    return sim, net


def _sink(net, address, dc=None):
    """Register a handler collecting (arrival_time, message) at address."""
    deliveries = []
    net.register(address, lambda src, msg: deliveries.append((net.sim.now, msg)))
    if dc is not None:
        net.place(address, dc)
    return deliveries


class TestMultiHop:
    def test_two_hop_delivery_pays_both_latencies(self):
        sim, net = _geo_net(_chain_topo(3, latency=0.01))
        got = _sink(net, "b", dc=2)
        net.place("a", 0)
        net.send("a", "b", "hello", size=100)
        sim.run()
        assert [msg for _, msg in got] == ["hello"]
        assert got[0][0] == pytest.approx(0.02, abs=1e-6)
        assert net.hops_forwarded == 2
        assert net.wan_messages == 1
        assert net.wan_bytes == 100

    def test_same_dc_traffic_stays_off_the_wan(self):
        sim, net = _geo_net(_chain_topo(2, latency=0.01))
        got = _sink(net, "b", dc=1)
        net.place("a", 1)
        net.send("a", "b", "local", size=100)
        sim.run()
        # LAN latency only, and no WAN accounting.
        assert got[0][0] == pytest.approx(net.topology.intra_site.latency, rel=0.01)
        assert net.wan_messages == 0
        assert net.hops_forwarded == 0

    def test_hub_relays_between_spokes(self):
        topo = GeoTopology()
        for dc in range(3):
            topo.add_datacenter(dc)
        topo.add_link(0, 1, 0.01)
        topo.add_link(0, 2, 0.03)
        sim, net = _geo_net(topo)
        got = _sink(net, "b", dc=2)
        net.place("a", 1)
        net.send("a", "b", "x", size=10)
        sim.run()
        assert got[0][0] == pytest.approx(0.04, abs=1e-6)
        assert net.hops_forwarded == 2


class TestBandwidthSharing:
    def test_concurrent_flows_share_the_link_fairly(self):
        # Two 1000-byte flows on a 1 MB/s link: each sees half the
        # capacity, so both finish at 2 ms instead of 1 ms.
        topo = _chain_topo(2, latency=0.0, bandwidth=1e6)
        sim, net = _geo_net(topo)
        got_one = _sink(net, "b1", dc=1)
        got_two = _sink(net, "b2", dc=1)
        net.place("a1", 0)
        net.place("a2", 0)
        net.send("a1", "b1", "m1", size=1000)
        net.send("a2", "b2", "m2", size=1000)
        sim.run()
        assert got_one[0][0] == pytest.approx(0.002, rel=0.01)
        assert got_two[0][0] == pytest.approx(0.002, rel=0.01)

    def test_solo_flow_gets_full_capacity(self):
        topo = _chain_topo(2, latency=0.0, bandwidth=1e6)
        sim, net = _geo_net(topo)
        got = _sink(net, "b", dc=1)
        net.place("a", 0)
        net.send("a", "b", "m", size=1000)
        sim.run()
        assert got[0][0] == pytest.approx(0.001, rel=0.01)

    def test_congestion_counts_as_queueing_delay(self):
        topo = _chain_topo(2, latency=0.0, bandwidth=1e6)
        sim, net = _geo_net(topo)
        for i in range(4):
            _sink(net, ("b", i), dc=1)
            net.place(("a", i), 0)
        for i in range(4):
            net.send(("a", i), ("b", i), "m", size=1000)
        sim.run()
        channel = net._channels[(0, 1)]
        assert channel.flows_completed == 4
        # Each flow took 4 ms against a 1 ms solo transfer: 3 ms queued.
        assert channel.queueing_delay == pytest.approx(4 * 0.003, rel=0.05)
        assert channel.busy_time == pytest.approx(0.004, rel=0.01)

    def test_fifo_release_order_survives_fair_sharing_overtake(self):
        # A small late message finishes its transfer long before a large
        # early one; the reorder buffer must still deliver in send order.
        topo = _chain_topo(2, latency=0.0, bandwidth=1e6)
        sim, net = _geo_net(topo)
        got = _sink(net, "b", dc=1)
        net.place("a", 0)
        net.send("a", "b", "big", size=10_000)
        net.send("a", "b", "small", size=100)
        sim.run()
        assert [msg for _, msg in got] == ["big", "small"]
        assert got[0][0] <= got[1][0]
        assert net.fifo_reorders == 1

    def test_high_bandwidth_flows_complete_at_late_sim_times(self):
        # Regression: float residue on a very fast link at a late
        # timestamp used to make the completion delay smaller than the
        # clock's ULP, re-scheduling the same completion forever. The
        # max_events bound turns a livelock into a fast failure.
        sim = Simulator()
        channel = LinkChannel(sim, 1e12, "fast")
        done = []
        for offset, size in ((0.0, 1000), (1e-7, 3000), (2e-7, 777), (3e-7, 1234)):
            sim.schedule_at(
                0.13 + offset, channel.submit, size, lambda: done.append(sim.now)
            )
        sim.run(max_events=50_000)
        assert len(done) == 4
        assert channel.active_flows == 0

    def test_infinite_bandwidth_completes_synchronously(self):
        sim = Simulator()
        channel = LinkChannel(sim, float("inf"), "inf")
        done = []
        channel.submit(10_000, lambda: done.append(True))
        assert done == [True]
        assert channel.flows_completed == 1


class TestRouteCacheInvalidation:
    """Topology mutations must invalidate routes already in use."""

    def test_flat_place_relinks_the_pair(self):
        sim = Simulator()
        net = Network(sim, wan_topology(wan_latency=0.05, wan_bandwidth=None))
        net.place("a", 0)
        net.place("b", 1)
        got = _sink(net, "b")
        net.send("a", "b", "wan", size=0)
        sim.run()
        net.place("b", 0)  # move into a's datacenter
        start = sim.now
        net.send("a", "b", "lan", size=0)
        sim.run()
        assert got[0][0] == pytest.approx(0.05, abs=1e-6)
        assert got[1][0] - start == pytest.approx(0.0005, abs=1e-6)

    def test_geo_add_link_reroutes_inflight_traffic_pattern(self):
        sim, net = _geo_net(_chain_topo(3, latency=0.01))
        got = _sink(net, "b", dc=2)
        net.place("a", 0)
        net.send("a", "b", "two-hop", size=0)
        sim.run()
        net.geo.add_link(0, 2, latency=0.005)  # new shortcut
        start = sim.now
        net.send("a", "b", "one-hop", size=0)
        sim.run()
        assert got[0][0] == pytest.approx(0.02, abs=1e-6)
        assert got[1][0] - start == pytest.approx(0.005, abs=1e-6)

    def test_geo_place_move_switches_between_wan_and_lan(self):
        sim, net = _geo_net(_chain_topo(2, latency=0.01))
        got = _sink(net, "b", dc=1)
        net.place("a", 0)
        net.send("a", "b", "cross", size=10)
        sim.run()
        assert net.wan_messages == 1
        net.place("a", 1)  # now co-located with b
        net.send("a", "b", "local", size=10)
        sim.run()
        assert net.wan_messages == 1  # second send never touched the WAN
        assert [msg for _, msg in got] == ["cross", "local"]


class TestObservability:
    def test_hop_spans_record_every_link_crossed(self):
        tracer = TraceRecorder()
        sim, net = _geo_net(_chain_topo(3, latency=0.01), tracer=tracer)
        _sink(net, "b", dc=2)
        net.place("a", 0)
        net.send("a", "b", "x", size=100)
        sim.run()
        hops = [s for s in tracer.spans if s.kind is SpanKind.HOP]
        assert [s.detail for s in hops] == [(0, 1), (1, 2)]
        assert all(s.end >= s.start for s in hops)

    def test_per_link_gauges_exported(self):
        sim, net = _geo_net(_chain_topo(2, latency=0.01, bandwidth=1e6))
        registry = MetricsRegistry()
        net.register_metrics(registry)
        _sink(net, "b", dc=1)
        net.place("a", 0)
        net.send("a", "b", "x", size=1000)
        sim.run()
        snap = registry.snapshot()
        assert snap["net.link.dc0-dc1.bytes"] == 1000
        assert snap["net.link.dc0-dc1.flows"] == 1
        assert snap["net.link.dc0-dc1.busy_time"] == pytest.approx(0.001, rel=0.01)
        assert snap["net.wan_messages"] == 1
        assert snap["net.hops_forwarded"] == 1
        # The reverse direction exists but carried nothing.
        assert snap["net.link.dc1-dc0.bytes"] == 0


class TestFaultSemantics:
    def test_drops_do_not_stall_fifo_successors(self):
        # A dropped message must not consume a sequence number, or every
        # later message on the pair would park forever.
        topo = _chain_topo(2, latency=0.01)
        sim, net = _geo_net(topo)
        got = _sink(net, "b", dc=1)
        net.place("a", 0)
        drop_first = {"armed": True}

        def fault_filter(now, src, dst, message, size):
            if drop_first["armed"]:
                drop_first["armed"] = False
                return DeliveryVerdict(drop=True)
            return DELIVER

        net.fault_filter = fault_filter
        net.send("a", "b", "lost", size=10)
        net.send("a", "b", "kept", size=10)
        sim.run()
        assert [msg for _, msg in got] == ["kept"]
        assert net.messages_dropped == 1


def _two_site_net(routed: bool):
    """Addresses a (site 0) and b (site 1), 10 ms apart, over the flat
    WAN pair or over a routed one-link graph."""
    sim = Simulator()
    if routed:
        net = Network(sim, geo=_chain_topo(2, latency=0.01))
    else:
        net = Network(sim, wan_topology(wan_latency=0.01, wan_bandwidth=None))
    net.place("a", 0)
    got = _sink(net, "b", dc=1)
    return sim, net, got


VERDICTS = {
    "drop": DeliveryVerdict(drop=True),
    "hold": DeliveryVerdict(hold=True),
    "extra_delay": DeliveryVerdict(extra_delay=0.05),
    "copies": DeliveryVerdict(copies=3),
}


class TestSharedDeliveryTail:
    """Both paths apply one fault verdict per send, after one FIFO clamp."""

    @pytest.mark.parametrize("verdict", sorted(VERDICTS))
    @pytest.mark.parametrize("path", ["flat", "routed"])
    def test_verdict_on_first_of_two_sends(self, path, verdict):
        sim, net, got = _two_site_net(routed=path == "routed")
        pending = [VERDICTS[verdict]]
        net.fault_filter = lambda *_: pending.pop() if pending else DELIVER
        net.send("a", "b", "first", size=0)
        net.send("a", "b", "second", size=0)
        sim.run()
        assert net.wan_messages == (2 if path == "routed" else 0)
        firsts = [at for at, msg in got if msg == "first"]
        (second,) = [at for at, msg in got if msg == "second"]
        assert second == pytest.approx(0.01, abs=1e-6)
        if verdict == "drop":
            assert firsts == [] and net.messages_dropped == 1
        elif verdict == "hold":
            # Custody, not a sequence number: the successor still lands.
            assert firsts == [] and net.messages_held == 1
        elif verdict == "extra_delay":
            # Past the FIFO point, so the successor overtakes.
            assert firsts == [pytest.approx(0.06, abs=1e-6)]
            assert [msg for _, msg in got] == ["second", "first"]
            assert net.messages_delayed == 1
        else:
            assert len(firsts) == 3 and net.messages_duplicated == 2
            assert firsts[0] == pytest.approx(0.01, abs=1e-6)
            gaps = [later - earlier for earlier, later in zip(firsts, firsts[1:])]
            assert gaps == [pytest.approx(net._fifo_epsilon, rel=1e-3)] * 2


class TestRegistry:
    ROUTED = ("net.wan_messages", "net.wan_bytes", "net.hops_forwarded", "net.fifo_reorders")
    FLAT = [
        "net.bytes_sent",
        "net.messages_delayed",
        "net.messages_dropped",
        "net.messages_duplicated",
        "net.messages_held",
        "net.messages_sent",
    ]

    def _names(self, **overrides):
        config = ClusterConfig(
            num_partitions=2, num_replicas=3, replication_mode="paxos", **overrides
        )
        cluster = CalvinCluster(config, workload=Microbenchmark())
        return set(cluster.metrics_registry.names())

    def test_flat_cluster_registers_no_routed_gauges(self):
        names = self._names()
        assert sorted(n for n in names if n.startswith("net.")) == self.FLAT

    def test_routed_cluster_registers_every_routed_gauge(self):
        names = self._names(topology="ring")
        assert set(self.ROUTED) <= names
        for src, dst in ((0, 1), (1, 0), (1, 2), (2, 1), (2, 0), (0, 2)):
            for stat in ("bytes", "flows", "busy_time", "queueing_delay", "utilization"):
                assert f"net.link.dc{src}-dc{dst}.{stat}" in names
