"""Calvin core: node/cluster assembly, clients, traffic, metrics, checkers, facade."""

from repro.core.api import CalvinDB, TxnHandle
from repro.core.checkers import (
    check_conflict_order,
    check_epoch_contiguity,
    check_no_double_apply,
    check_no_lost_commits,
    check_replica_consistency,
    check_replica_prefix_consistency,
    check_serializability,
    reference_execution,
)
from repro.core.clients import Client
from repro.core.cluster import CalvinCluster, Cluster
from repro.core.metrics import Metrics, RunReport
from repro.core.node import CalvinNode
from repro.core.traffic import AdmissionController, ClientProfile

__all__ = [
    "AdmissionController",
    "CalvinCluster",
    "CalvinDB",
    "CalvinNode",
    "Client",
    "ClientProfile",
    "Cluster",
    "Metrics",
    "RunReport",
    "TxnHandle",
    "check_conflict_order",
    "check_epoch_contiguity",
    "check_no_double_apply",
    "check_no_lost_commits",
    "check_replica_consistency",
    "check_replica_prefix_consistency",
    "check_serializability",
    "reference_execution",
]
