"""The ``repro`` package's public surface is a contract: exactly the
names in ``__all__``, each importable and documented. A PR that adds or
removes an export must update this list deliberately."""

import repro

EXPECTED_EXPORTS = [
    "BaselineConfig",
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


def test_all_matches_contract():
    assert sorted(repro.__all__) == EXPECTED_EXPORTS


def test_every_export_resolves():
    for name in repro.__all__:
        assert getattr(repro, name) is not None, name


def test_exports_sorted_for_readability():
    assert list(repro.__all__) == sorted(repro.__all__)


def test_classes_are_documented():
    for name in repro.__all__:
        obj = getattr(repro, name)
        if isinstance(obj, type):
            assert obj.__doc__, f"{name} has no docstring"


def test_version_present():
    major, minor, patch = repro.__version__.split(".")
    assert all(part.isdigit() for part in (major, minor, patch))
