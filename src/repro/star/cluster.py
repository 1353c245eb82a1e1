"""STAR cluster assembly on the CalvinCluster substrate.

Everything below the execution seam is inherited unchanged — simulator,
network, sequencers (same epochs, same agreed global order), storage,
clients, metrics, history. The differences: nodes are
:class:`StarNode` (master-routed multipartition execution), the
designated master node gets a :class:`StarMaster`, every input
sequencer feeds the :class:`PhaseController`'s multipartition-fraction
estimate, and :meth:`start` launches the phase loop.

Because admission and lock order are exactly Calvin's, a STAR cluster
fed the same input schedule as a core cluster commits the same
transactions with the same effects — the property
``tests/test_engine_equivalence.py`` pins.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.config import ClusterConfig
from repro.core.cluster import CalvinCluster
from repro.star.master import MASTER_PARTITION, StarMaster
from repro.star.node import StarNode
from repro.star.phase import PARTITIONED, SINGLE_MASTER, PhaseController
from repro.txn.result import TxnStatus


class StarCluster(CalvinCluster):
    """A simulated STAR deployment (its scope is the ``star`` row of
    :data:`repro.engines.UNSUPPORTED`)."""

    # deterministic_order stays True: STAR keeps Calvin's agreed global
    # order (phases gate only *where* multipartition transactions run),
    # so final state matches core's bit for bit on the same schedule.
    engine = "star"
    node_class = StarNode

    def __init__(self, config: ClusterConfig, **kwargs):
        # Per-phase committed counters (per-phase throughput = counter
        # delta / phase time; the bench harness reads these).
        self.committed_by_phase: Dict[str, int] = {PARTITIONED: 0, SINGLE_MASTER: 0}
        self.master: Optional[StarMaster] = None
        self.controller: Optional[PhaseController] = None

        super().__init__(config, **kwargs)

        master_node = self.node(0, MASTER_PARTITION)
        assert isinstance(master_node, StarNode)
        stores = {
            partition: self.node(0, partition).store
            for partition in range(config.num_partitions)
        }
        self.master = StarMaster(master_node, stores)
        master_node.star_master = self.master
        self.controller = PhaseController(
            self.sim, config, self.master, tracer=self.tracer
        )
        for partition in range(config.num_partitions):
            sequencer = self.node(0, partition).sequencer
            sequencer.batch_observer = self.controller.observe_batch
        self._register_star_metrics()

    def _register_star_metrics(self) -> None:
        registry = self.metrics_registry
        controller, master = self.controller, self.master
        registry.gauge(
            "star.phase", lambda: 1 if controller.phase == SINGLE_MASTER else 0
        )
        registry.gauge("star.phase_switches", lambda: controller.phase_switches)
        registry.gauge("star.mp_fraction", lambda: controller.multipartition_fraction)
        registry.gauge("star.backlog", lambda: master.backlog_depth)
        registry.gauge("star.master_in_flight", lambda: master.in_flight)
        registry.gauge("star.master_txns", lambda: master.txns_executed)
        registry.gauge(
            "star.committed_partitioned",
            lambda: self.committed_by_phase[PARTITIONED],
        )
        registry.gauge(
            "star.committed_single_master",
            lambda: self.committed_by_phase[SINGLE_MASTER],
        )

    def _completion_hook(self, stxn, result) -> None:
        if result.status is TxnStatus.COMMITTED and self.controller is not None:
            self.committed_by_phase[self.controller.phase] += 1
        super()._completion_hook(stxn, result)

    def start(self) -> None:
        if self._started:
            return
        super().start()
        self.controller.start()
