"""Error hierarchy and config surface tests."""

import pytest

from repro import errors
from repro.config import ClusterConfig, CostModel
from repro.errors import ConfigError


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for name in (
            "ConfigError",
            "SimulationError",
            "NetworkError",
            "StorageError",
            "KeyNotFound",
            "FootprintViolation",
            "TransactionAborted",
            "SchedulerError",
            "PaxosError",
            "RecoveryError",
            "ConsistencyError",
        ):
            assert issubclass(getattr(errors, name), errors.ReproError), name

    def test_key_not_found_is_storage_error(self):
        assert issubclass(errors.KeyNotFound, errors.StorageError)

    def test_transaction_aborted_reason(self):
        exc = errors.TransactionAborted("over limit")
        assert exc.reason == "over limit"
        assert "over limit" in str(exc)

    def test_transaction_aborted_default_reason(self):
        assert errors.TransactionAborted().reason


class TestConfigSurface:
    def test_epoch_must_be_positive(self):
        with pytest.raises(ConfigError):
            ClusterConfig(epoch_duration=0).validate()

    def test_disk_estimate_error_range(self):
        with pytest.raises(ConfigError):
            ClusterConfig(disk_estimate_error=2.0).validate()

    def test_workers_positive(self):
        with pytest.raises(ConfigError):
            ClusterConfig(workers_per_node=0).validate()

    def test_cost_model_disk_parallelism(self):
        with pytest.raises(ConfigError):
            CostModel(disk_parallelism=0).validate()

    def test_default_cost_model_sane(self):
        costs = CostModel()
        costs.validate()
        # Multipartition transactions must cost more than single-partition
        # base work — the premise of the Fig. 6 gap.
        assert costs.multipartition_overhead_cpu > costs.txn_base_cpu

    def test_cluster_config_frozen(self):
        import dataclasses

        with pytest.raises(dataclasses.FrozenInstanceError):
            ClusterConfig().seed = 1
