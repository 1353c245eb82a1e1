"""Calvin: fast distributed transactions for partitioned database systems.

A comprehensive reproduction of Thomson et al. (SIGMOD 2012) in Python.
Transactions execute real stored-procedure logic against real
per-partition stores; time, network, disk and CPU are modeled by a
deterministic discrete-event simulation, so the paper's throughput,
scalability, contention and checkpointing experiments can be regenerated
on a laptop while correctness (determinism, serializability, replica
consistency) is checked on actual data.

Quickstart::

    from repro import CalvinDB

    db = CalvinDB(num_partitions=2)

    @db.procedure("deposit")
    def deposit(ctx):
        key, amount = ctx.args
        ctx.write(key, (ctx.read(key) or 0) + amount)

    db.load({"acct": 0})
    result = db.execute("deposit", ("acct", 5),
                        read_set=["acct"], write_set=["acct"])
    assert result.committed and db.get("acct") == 5

Public surface (everything in ``__all__``; anything else is internal):

- **Facade** — :class:`CalvinDB` (sync ``execute`` / async ``submit`` +
  :class:`TxnHandle`), for examples and small programs.
- **Cluster assembly** — :class:`CalvinCluster`, :class:`ClusterConfig`,
  :class:`CostModel`, ``DEFAULT_CONFIG``, for experiments that wire
  workloads, clients and faults explicitly.
- **Traffic** — :class:`ClientProfile` (shared closed/open-loop client
  spec consumed by ``add_clients``, the bench harness and the CLI).
- **Engines** — :class:`Cluster` (the substrate every engine's
  cluster class subclasses), :func:`get_engine` (name -> cluster
  class) and :func:`build_cluster` (builds whatever ``config.engine``
  names: the Calvin ``core``, the 2PL+2PC ``baseline``, or the
  phase-switching ``star``; see docs/engines.md).
- **Transactions** — :class:`Transaction`, :class:`TransactionResult`,
  :class:`TxnStatus`, :class:`TxnContext`, :class:`Procedure`,
  :class:`ProcedureRegistry`, :class:`Footprint`.
- **Workloads** — :class:`Microbenchmark`, :class:`TpccWorkload`,
  :class:`YcsbWorkload`, :class:`Workload`, :class:`TxnSpec`.
- **Faults** — :class:`FaultPlan`, :class:`FaultEvent`,
  :class:`FaultInjector`, ``FAULT_PROFILES``, :func:`build_profile`,
  :func:`random_plan`.
- **Observability** — :class:`MetricsRegistry`, :class:`TraceRecorder`,
  :func:`trace_digest`.
- **Control plane** — :class:`ClusterAdmin` (the single elastic
  reconfiguration surface: ``split`` / ``merge`` / ``add_node`` /
  ``remove_node`` / ``plan``), with :class:`MigrationPlan` and
  :class:`ReconfigEvent` as its immutable records; see
  docs/reconfiguration.md.
- **Determinism analysis** — :class:`DeterminismSanitizer` (runtime
  trip wires, also reachable as ``ClusterConfig(sanitize=True)``) and
  :class:`DeterminismViolation`.
- **Checkers** — the ``check_*`` correctness oracles.
- **Errors** — :class:`ReproError` and friends.
"""

from repro.analysis import DeterminismSanitizer
from repro.config import ClusterConfig, CostModel, DEFAULT_CONFIG
from repro.core import (
    CalvinCluster,
    CalvinDB,
    ClientProfile,
    Cluster,
    Metrics,
    RunReport,
    TxnHandle,
    check_conflict_order,
    check_epoch_contiguity,
    check_no_double_apply,
    check_no_lost_commits,
    check_replica_consistency,
    check_replica_prefix_consistency,
    check_serializability,
)
from repro.engines import build_cluster, get_engine
from repro.errors import (
    ConfigError,
    ConsistencyError,
    DeterminismViolation,
    FootprintViolation,
    ReproError,
    TransactionAborted,
)
from repro.faults import (
    FAULT_PROFILES,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    build_profile,
    random_plan,
)
from repro.obs import MetricsRegistry, TraceRecorder, trace_digest
from repro.reconfig import ClusterAdmin, MigrationPlan, ReconfigEvent
from repro.txn import (
    Footprint,
    Procedure,
    ProcedureRegistry,
    Transaction,
    TransactionResult,
    TxnContext,
    TxnStatus,
)
from repro.workloads import (
    Microbenchmark,
    TpccWorkload,
    TxnSpec,
    Workload,
    YcsbWorkload,
)

__version__ = "1.0.0"

__all__ = [
    "CalvinCluster",
    "CalvinDB",
    "ClientProfile",
    "Cluster",
    "ClusterAdmin",
    "ClusterConfig",
    "ConfigError",
    "ConsistencyError",
    "CostModel",
    "DEFAULT_CONFIG",
    "DeterminismSanitizer",
    "DeterminismViolation",
    "FAULT_PROFILES",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "Footprint",
    "FootprintViolation",
    "Metrics",
    "MetricsRegistry",
    "Microbenchmark",
    "MigrationPlan",
    "Procedure",
    "ProcedureRegistry",
    "ReconfigEvent",
    "ReproError",
    "RunReport",
    "TpccWorkload",
    "TraceRecorder",
    "Transaction",
    "TransactionAborted",
    "TransactionResult",
    "TxnContext",
    "TxnHandle",
    "TxnSpec",
    "TxnStatus",
    "Workload",
    "YcsbWorkload",
    "build_cluster",
    "build_profile",
    "check_conflict_order",
    "check_epoch_contiguity",
    "check_no_double_apply",
    "check_no_lost_commits",
    "check_replica_consistency",
    "check_replica_prefix_consistency",
    "check_serializability",
    "get_engine",
    "random_plan",
    "trace_digest",
]
