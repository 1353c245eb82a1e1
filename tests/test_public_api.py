"""The ``repro`` package's public surface is a contract: exactly the
names in ``__all__``, each importable and documented. A PR that adds or
removes an export must update this list deliberately."""

import dataclasses

import repro
from repro.reconfig import AutoscalePolicy

EXPECTED_EXPORTS = [
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


# Every settable field of the three config surfaces. A new knob is a
# deliberate edit here: it needs two non-test callers that want
# different values.
EXPECTED_FIELDS = {
    repro.ClusterConfig: [
        "num_partitions", "num_replicas", "workers_per_node", "engine",
        "lock_manager_shards", "epoch_duration", "replication_mode",
        "force_input_log", "wan_latency", "wan_bandwidth", "topology",
        "partial_hosting", "seed", "costs", "disk_enabled",
        "disk_estimate_error", "admission_policy", "admission_queue_capacity",
        "admission_epoch_budget", "sanitize", "audit_footprints",
        "fault_profile", "fault_horizon", "active_partitions",
    ],
    repro.ClientProfile: [
        "per_partition", "mode", "max_txns", "rate", "retry_rejected",
    ],
    AutoscalePolicy: [
        "interval", "scale_up_queue_depth", "cooldown", "min_origins",
    ],
}


def test_config_fields_match_census():
    for config_cls, names in EXPECTED_FIELDS.items():
        fields = [field.name for field in dataclasses.fields(config_cls)]
        assert fields == names, config_cls.__name__


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
