"""Unit tests for the simulated network."""

import pytest

from repro.errors import NetworkError
from repro.sim import LinkSpec, Network, Simulator, lan_topology, wan_topology


@pytest.fixture
def sim():
    return Simulator()


def make_network(sim, topology=None):
    network = Network(sim, topology)
    inbox = []
    network.register("a", lambda src, msg: inbox.append(("a", src, msg, sim.now)))
    network.register("b", lambda src, msg: inbox.append(("b", src, msg, sim.now)))
    return network, inbox


class TestLinkSpec:
    def test_latency_only(self):
        assert LinkSpec(0.001).transfer_time(10_000) == 0.001

    def test_bandwidth_term(self):
        spec = LinkSpec(0.001, bandwidth=1e6)
        assert spec.transfer_time(1000) == pytest.approx(0.002)

    def test_zero_size(self):
        assert LinkSpec(0.001, bandwidth=1e6).transfer_time(0) == 0.001


class TestTopology:
    def test_local_link(self):
        topology = lan_topology()
        assert topology.link("x", "x").latency == 0.0

    def test_intra_vs_inter_site(self):
        topology = wan_topology(lan_latency=0.001, wan_latency=0.1)
        topology.place("a", 0)
        topology.place("b", 0)
        topology.place("c", 1)
        assert topology.link("a", "b").latency == 0.001
        assert topology.link("a", "c").latency == 0.1

    def test_unplaced_defaults_to_site_zero(self):
        topology = wan_topology()
        topology.place("far", 1)
        assert topology.link("unknown", "far").latency == topology.inter_site.latency


class TestNetwork:
    def test_delivery_after_latency(self, sim):
        network, inbox = make_network(sim, lan_topology(latency=0.002))
        network.send("a", "b", "hello", size=0)
        sim.run()
        assert inbox == [("b", "a", "hello", pytest.approx(0.002))]

    def test_duplicate_registration_rejected(self, sim):
        network, _ = make_network(sim)
        with pytest.raises(NetworkError):
            network.register("a", lambda s, m: None)

    def test_unregistered_destination_dropped(self, sim):
        network, inbox = make_network(sim)
        network.send("a", "ghost", "lost")
        sim.run()
        assert inbox == []

    def test_unregister_simulates_crash(self, sim):
        network, inbox = make_network(sim)
        network.unregister("b")
        network.send("a", "b", "msg")
        sim.run()
        assert inbox == []

    def test_per_link_fifo(self, sim):
        # A big message followed by a small one on the same link must
        # not be overtaken (TCP-like ordering).
        topology = lan_topology(latency=0.001, bandwidth=1e6)
        network, inbox = make_network(sim, topology)
        network.send("a", "b", "big", size=10_000)   # 0.001 + 0.01
        network.send("a", "b", "small", size=0)      # raw 0.001, must queue
        sim.run()
        assert [entry[2] for entry in inbox] == ["big", "small"]

    def test_distinct_links_independent(self, sim):
        topology = lan_topology(latency=0.001, bandwidth=1e6)
        network, inbox = make_network(sim, topology)
        network.register("c", lambda src, msg: inbox.append(("c", src, msg, sim.now)))
        network.send("a", "b", "big", size=100_000)
        network.send("c", "b", "small", size=0)
        sim.run()
        assert [entry[2] for entry in inbox] == ["small", "big"]

    def test_stats_counted(self, sim):
        network, _ = make_network(sim)
        network.send("a", "b", "x", size=100)
        network.send("a", "b", "y", size=200)
        assert network.messages_sent == 2
        assert network.bytes_sent == 300


class TestBatchCoalescing:
    """Same-tick sends on one link: one heap entry per message, spaced
    and ordered by the FIFO clamp."""

    def test_handler_crash_mid_batch_drops_rest_of_batch(self, sim):
        network = Network(sim)
        seen = []

        def receiver(src, msg):
            seen.append(msg)
            network.unregister("b")  # crash on first delivery

        network.register("b", receiver)
        network.send("a", "b", "first")
        network.send("a", "b", "second")  # in flight on the same pair
        sim.run()
        assert seen == ["first"]

    def test_fifo_epsilon_keeps_same_tick_sends_ordered(self, sim):
        network, inbox = make_network(sim)
        network.send("a", "b", "first")
        network.send("a", "b", "second")
        sim.run()
        times = [at for _, _, _, at in inbox]
        assert times[0] < times[1]


class TestPairRecord:
    """What the per-pair record must keep across placement and
    registration changes while a message is in flight."""

    def test_fifo_clamp_survives_a_move_to_a_nearer_site(self, sim):
        network, inbox = make_network(
            sim, wan_topology(lan_latency=0.001, wan_latency=0.1, wan_bandwidth=None)
        )
        network.place("b", 1)
        network.send("a", "b", "far", size=0)
        network.place("b", 0)  # now 1 ms away, but "far" is still in flight
        network.send("a", "b", "near", size=0)
        sim.run()
        assert [msg for _, _, msg, _ in inbox] == ["far", "near"]
        assert inbox[1][3] == pytest.approx(0.1, abs=1e-6)

    def test_inflight_message_to_an_unregistered_address_is_dropped(self, sim):
        network, inbox = make_network(sim)
        network.send("a", "b", "lost")
        sim.schedule(0.0001, network.unregister, "b")  # crash before arrival
        sim.run()
        assert inbox == []

    def test_reregistered_address_receives_on_its_new_handler(self, sim):
        network, inbox = make_network(sim)
        fresh = []
        network.send("a", "b", "msg")
        network.unregister("b")
        network.register("b", lambda src, msg: fresh.append((src, msg)))
        sim.run()
        assert inbox == [] and fresh == [("a", "msg")]

    def test_send_before_registration_is_delivered_once_registered(self, sim):
        network, inbox = make_network(sim)
        network.send("a", "late", "early bird")
        network.register("late", lambda src, msg: inbox.append(("late", src, msg, sim.now)))
        sim.run()
        assert [msg for _, _, msg, _ in inbox] == ["early bird"]
