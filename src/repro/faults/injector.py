"""The fault injector: drives a :class:`FaultPlan` against a live cluster.

The injector is a privileged sim-side process with three hooks:

- **network**: it installs itself as the network's ``fault_filter`` and
  decides, per send, whether the message is dropped, held (partitions
  and paused nodes buffer traffic TCP-style), delayed, or duplicated;
- **kernel**: node crash/pause suspend the node's owner-tagged timers
  (``Simulator.suspend_owner``), restart/resume replays them;
- **disk**: disk windows install a :class:`DiskFaultMode` on the node's
  simulated device.

All randomness comes from one named RNG stream derived from the cluster
seed and the plan name, so a (seed, plan) pair replays bit-identically.
The injector keeps a structured :attr:`trace` of everything it did;
:meth:`trace_digest` hashes it for determinism regression tests.

Optionally a monitor runs *during* the run (``monitor_interval``),
re-checking the invariants :data:`repro.core.checkers.CHECKS` marks
live (``verify(cluster, live=True)``: epoch-gap freedom, no
double-apply, no lost commits and committed-prefix replica consistency)
so that a fault that corrupts state fails fast at the moment of
corruption, not at end-of-run.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Optional, TYPE_CHECKING, Tuple

from repro.errors import ConfigError
from repro.faults.plan import CRASH, DISK, FaultEvent, FaultPlan, LINK, PARTITION, PAUSE
from repro.sim.network import DELIVER, DeliveryVerdict
from repro.storage.disk import DiskFaultMode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.cluster import CalvinCluster


class _LinkWindow:
    """One active link-fault window (already begun, not yet ended)."""

    def __init__(self, event: FaultEvent):
        _tag, self.src_site, self.dst_site = event.target
        self.drop = event.param("drop", 0.0)
        self.delay = event.param("delay", 0.0)
        self.delay_jitter = event.param("delay_jitter", 0.0)
        self.duplicate = event.param("duplicate", 0.0)

    def matches(self, src_site: int, dst_site: int) -> bool:
        return (self.src_site is None or self.src_site == src_site) and (
            self.dst_site is None or self.dst_site == dst_site
        )


class _PartitionCut:
    """One active network partition between two site groups."""

    def __init__(self, event: FaultEvent):
        _tag, group_a, group_b = event.target
        self.group_a = frozenset(group_a)
        self.group_b = frozenset(group_b)
        self.mode = event.param("mode", "buffer")
        self.held: List[Tuple[Any, Any, Any, int]] = []

    def severs(self, src_site: int, dst_site: int) -> bool:
        return (src_site in self.group_a and dst_site in self.group_b) or (
            src_site in self.group_b and dst_site in self.group_a
        )


class FaultInjector:
    """Installs and executes a fault plan on a cluster."""

    def __init__(
        self,
        cluster: "CalvinCluster",
        plan: FaultPlan,
        monitor_interval: Optional[float] = None,
    ):
        plan.validate(cluster.config.num_replicas, cluster.config.num_partitions)
        self.cluster = cluster
        self.plan = plan
        self.sim = cluster.sim
        self.network = cluster.network
        self.rng = cluster.rngs.stream("faults", plan.name)
        self.monitor_interval = monitor_interval
        self.monitor_checks = 0

        self.trace: List[Tuple[Any, ...]] = []
        self._links: List[_LinkWindow] = []
        self._cuts: List[_PartitionCut] = []
        # Paused node addresses -> held (src, dst, message, size) in order.
        self._paused: Dict[Any, List[Tuple[Any, Any, Any, int]]] = {}
        self._installed = False

    # -- installation ---------------------------------------------------

    def install(self) -> "FaultInjector":
        """Claim the network hook and schedule every plan event."""
        if self._installed:
            return self
        if self.network.fault_filter is not None:
            raise ConfigError("network already has a fault filter installed")
        self._installed = True
        self.network.fault_filter = self._filter
        for event in self.plan.events:
            self.sim.schedule_at(event.at, self._begin, event)
            if event.until is not None:
                self.sim.schedule_at(event.until, self._end, event)
        if self.monitor_interval is not None:
            self.sim.schedule(self.monitor_interval, self._monitor_tick)
        return self

    # -- plan execution -------------------------------------------------

    def _nodes_matching(self, target):
        _tag, replica, partition = target
        for node_id, node in sorted(self.cluster.nodes.items()):
            if replica is not None and node_id.replica != replica:
                continue
            if partition is not None and node_id.partition != partition:
                continue
            yield node

    def _record(self, *entry: Any) -> None:
        self.trace.append((round(self.sim.now, 9),) + entry)

    def _begin(self, event: FaultEvent) -> None:
        if event.kind == CRASH:
            for node in self._nodes_matching(event.target):
                self._record("crash", (node.node_id.replica, node.node_id.partition))
                node.crash()
        elif event.kind == PAUSE:
            for node in self._nodes_matching(event.target):
                self._record("pause", (node.node_id.replica, node.node_id.partition))
                self._paused.setdefault(node.address, [])
                self.sim.suspend_owner(node.address)
        elif event.kind == LINK:
            self._record("link-on", event.target, event.params)
            self._links.append(_LinkWindow(event))
        elif event.kind == PARTITION:
            self._record("partition", event.target, event.params)
            self._cuts.append(_PartitionCut(event))
        elif event.kind == DISK:
            mode = DiskFaultMode(
                latency_multiplier=event.param("latency_multiplier", 1.0),
                extra_latency=event.param("extra_latency", 0.0),
                torn_io_prob=event.param("torn_io_prob", 0.0),
            )
            for node in self._nodes_matching(event.target):
                if node.engine.disk is not None:
                    self._record("disk-on", (node.node_id.replica, node.node_id.partition), event.params)
                    node.engine.disk.set_fault_mode(mode)

    def _end(self, event: FaultEvent) -> None:
        if event.kind == CRASH:
            for node in self._nodes_matching(event.target):
                self._record("restart", (node.node_id.replica, node.node_id.partition))
                self.cluster.restart_node(
                    node.node_id.replica,
                    node.node_id.partition,
                    resync=event.param("resync", True),
                )
        elif event.kind == PAUSE:
            for node in self._nodes_matching(event.target):
                self._record("resume", (node.node_id.replica, node.node_id.partition))
                self.sim.resume_owner(node.address)
                self._flush(self._paused.pop(node.address, []))
        elif event.kind == LINK:
            self._record("link-off", event.target)
            self._links = [w for w in self._links if w is not self._window_of(event)]
        elif event.kind == PARTITION:
            cut = self._cut_of(event)
            self._record("heal", event.target, len(cut.held) if cut else 0)
            if cut is not None:
                self._cuts.remove(cut)
                self._flush(cut.held)
        elif event.kind == DISK:
            for node in self._nodes_matching(event.target):
                if node.engine.disk is not None:
                    self._record("disk-off", (node.node_id.replica, node.node_id.partition))
                    node.engine.disk.set_fault_mode(None)

    def _window_of(self, event: FaultEvent) -> Optional[_LinkWindow]:
        for window in self._links:
            if (window.src_site, window.dst_site) == event.target[1:] and (
                window.drop,
                window.delay,
                window.delay_jitter,
                window.duplicate,
            ) == (
                event.param("drop", 0.0),
                event.param("delay", 0.0),
                event.param("delay_jitter", 0.0),
                event.param("duplicate", 0.0),
            ):
                return window
        return None

    def _cut_of(self, event: FaultEvent) -> Optional[_PartitionCut]:
        _tag, group_a, group_b = event.target
        for cut in self._cuts:
            if cut.group_a == frozenset(group_a) and cut.group_b == frozenset(group_b):
                return cut
        return None

    def _flush(self, held: List[Tuple[Any, Any, Any, int]]) -> None:
        """Re-send buffered messages in original order (they re-enter the
        filter, so traffic into a still-active fault is re-held)."""
        for src, dst, message, size in held:
            self.network.send(src, dst, message, size)

    # -- the network hook ------------------------------------------------

    def _filter(self, now, src, dst, message, size) -> DeliveryVerdict:
        # 1. Paused endpoints buffer their traffic, both directions.
        for address in (dst, src):
            held = self._paused.get(address)
            if held is not None:
                held.append((src, dst, message, size))
                self._record("hold", type(message).__name__, repr(src), repr(dst))
                return DeliveryVerdict(hold=True)
        site_of = self.network.topology.site_of
        src_site, dst_site = site_of(src), site_of(dst)
        # 2. Partitions sever the cut (buffering or dropping).
        for cut in self._cuts:
            if cut.severs(src_site, dst_site):
                if cut.mode == "buffer":
                    cut.held.append((src, dst, message, size))
                    self._record("hold", type(message).__name__, repr(src), repr(dst))
                    return DeliveryVerdict(hold=True)
                self._record("drop", type(message).__name__, repr(src), repr(dst))
                return DeliveryVerdict(drop=True)
        # 3. Link windows: probabilistic drop / delay / duplicate.
        extra_delay, copies = 0.0, 1
        for window in self._links:
            if not window.matches(src_site, dst_site):
                continue
            if window.drop > 0 and self.rng.random() < window.drop:
                self._record("drop", type(message).__name__, repr(src), repr(dst))
                return DeliveryVerdict(drop=True)
            if window.delay > 0 or window.delay_jitter > 0:
                extra_delay += window.delay + (
                    self.rng.uniform(0.0, window.delay_jitter)
                    if window.delay_jitter > 0
                    else 0.0
                )
            if window.duplicate > 0 and self.rng.random() < window.duplicate:
                copies += 1
        if extra_delay > 0 or copies > 1:
            self._record(
                "mangle", type(message).__name__, repr(src), repr(dst),
                round(extra_delay, 9), copies,
            )
            return DeliveryVerdict(extra_delay=extra_delay, copies=copies)
        return DELIVER

    # -- live invariant monitoring ----------------------------------------

    def _monitor_tick(self) -> None:
        from repro.core.checkers import verify

        verify(self.cluster, live=True)
        self.monitor_checks += 1
        self.sim.schedule(self.monitor_interval, self._monitor_tick)

    # -- reproducibility -------------------------------------------------

    def trace_digest(self) -> str:
        """Stable hash of everything the injector did this run."""
        payload = repr(self.trace).encode()
        return hashlib.sha256(payload).hexdigest()
