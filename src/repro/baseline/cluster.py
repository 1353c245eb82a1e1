"""Baseline cluster assembly: 2PL + 2PC nodes on the shared
:class:`repro.core.cluster.Cluster` substrate, so the same clients and
benchmark harness drive both systems."""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional

from repro.baseline.node import BaselineNode
from repro.config import ClusterConfig
from repro.core.cluster import Cluster
from repro.obs import TraceRecorder
from repro.partition.partitioner import Key, Partitioner
from repro.storage.kvstore import KVStore
from repro.txn.procedures import ProcedureRegistry
from repro.txn.result import TransactionResult
from repro.txn.transaction import Transaction
from repro.workloads.base import Workload


class BaselineCluster(Cluster):
    """A simulated conventional (2PL + 2PC) distributed database."""

    engine = "baseline"
    # Lock races decide the serialization order, so only *a* serializable
    # outcome is promised — not Calvin's pre-agreed one.
    deterministic_order = False
    # A wait-die death is retried after this backoff, up to this many times.
    retry_backoff = 0.002
    max_restarts = 50

    def __init__(
        self,
        config: ClusterConfig,
        workload: Optional[Workload] = None,
        registry: Optional[ProcedureRegistry] = None,
        partitioner: Optional[Partitioner] = None,
        tracer: Optional[TraceRecorder] = None,
        record_history: bool = False,
    ):
        super().__init__(
            config, workload, registry, partitioner, record_history, tracer
        )
        self.nodes: Dict[int, BaselineNode] = {
            partition: BaselineNode(
                self.sim,
                self.network,
                partition,
                self.catalog,
                self.config,
                self.registry,
                on_complete=self._completion_hook,
                tracer=self.tracer,
            )
            for partition in range(self.config.num_partitions)
        }
        for partition, node in self.nodes.items():
            node.register_metrics(self.metrics_registry, f"node.p{partition}")

    def _completion_hook(self, txn: Transaction, result: TransactionResult) -> None:
        self.metrics.record_completion(txn.procedure, result, self.sim.now)
        # Optional completion history: (completion index, txn, status) in
        # commit order. Under strict 2PL + 2PC the commit point precedes
        # lock release, so completion order is a valid serialization
        # order — the equivalence oracle replays it serially.
        if self.record_history:
            self.history.append((len(self.history), txn, result.status))

    # -- engine hooks --------------------------------------------------------

    def _stores_of(self, partition: int) -> Iterable[KVStore]:
        return (self.nodes[partition].store,)

    def _drained(self) -> bool:
        return not any(node._coord for node in self.nodes.values())

    # -- engine-specific surface ---------------------------------------------

    def analytics_read(self, key: Key) -> Any:
        return self.nodes[self.catalog.partition_of(key)].store.get(key)

    def node(self, replica: int, partition: int) -> BaselineNode:
        """Same spelling as the replicated engines; ``replica`` is 0."""
        return self.nodes[partition]

    def final_state(self) -> Dict[Key, Any]:
        state: Dict[Key, Any] = {}
        for node in self.nodes.values():
            state.update(node.store.snapshot())
        return state
