"""Deterministic discrete-event simulation kernel.

This subpackage is the substrate on which the simulated Calvin cluster
(and the 2PC baseline cluster) runs. It provides:

- :class:`~repro.sim.kernel.Simulator` — the event loop (virtual time),
- :class:`~repro.sim.events.Event` and combinators (``AllOf``/``AnyOf``),
- generator-based processes (:class:`~repro.sim.process.Process`),
- :class:`~repro.sim.resources.Resource` — counted resources such as a
  node's worker pool or a disk's request queue,
- :class:`~repro.sim.network.Network` — latency/bandwidth message
  transport with per-link FIFO delivery, optionally routed hop by hop
  over a datacenter graph (:mod:`repro.geo`),
- deterministic named RNG streams (:class:`~repro.sim.rng.RngStreams`),
- measurement helpers (:mod:`repro.sim.stats`).

Everything is deterministic: a given seed and configuration always
produces the identical event trace, which the replica-consistency
checkers rely on.
"""

from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.kernel import Simulator
from repro.sim.network import LinkSpec, Network, Topology, lan_topology, wan_topology
from repro.sim.process import Process
from repro.sim.resources import Resource
from repro.sim.rng import RngStreams
from repro.sim.stats import Counter, LatencySample, ThroughputSeries

__all__ = [
    "AllOf",
    "AnyOf",
    "Counter",
    "Event",
    "LatencySample",
    "LinkSpec",
    "Network",
    "Process",
    "Resource",
    "RngStreams",
    "Simulator",
    "ThroughputSeries",
    "Timeout",
    "Topology",
    "lan_topology",
    "wan_topology",
]
