"""Unit tests for the microbenchmark workload."""

import random

import pytest

from repro import ClusterConfig, ConfigError, Microbenchmark
from repro.partition import Catalog


def make_catalog(partitions=4):
    workload = Microbenchmark()
    config = ClusterConfig(num_partitions=partitions)
    return Catalog(config, workload.build_partitioner(partitions))


class TestConfig:
    def test_contention_index(self):
        assert Microbenchmark(hot_set_size=100).contention_index == 0.01

    def test_invalid_hot_set(self):
        with pytest.raises(ConfigError):
            Microbenchmark(hot_set_size=0)

    def test_invalid_mp_fraction(self):
        with pytest.raises(ConfigError):
            Microbenchmark(mp_fraction=1.5)

    def test_cold_set_must_fit_txn(self):
        with pytest.raises(ConfigError):
            Microbenchmark(cold_set_size=5)

    def test_archive_draws_need_an_archive(self):
        # An empty archive would leave the archive draw nothing to pick.
        with pytest.raises(ConfigError):
            Microbenchmark(archive_fraction=0.1, archive_set_size=0)
        Microbenchmark(archive_fraction=0.0, archive_set_size=0)


class TestInitialData:
    def test_sizes(self):
        workload = Microbenchmark(hot_set_size=10, cold_set_size=20)
        data = workload.initial_data(make_catalog(2))
        assert len(data) == 2 * 30
        assert all(value == 0 for value in data.values())

    def test_archive_tier_included_when_used(self):
        workload = Microbenchmark(
            hot_set_size=10, cold_set_size=20,
            archive_fraction=0.1, archive_set_size=5,
        )
        data = workload.initial_data(make_catalog(1))
        assert ("arch", 0, 0) in data

    def test_partitioning_by_embedded_partition(self):
        catalog = make_catalog(4)
        assert catalog.partition_of(("hot", 3, 0)) == 3
        assert catalog.partition_of(("cold", 1, 5)) == 1


class TestGenerate:
    def test_single_partition_spec(self):
        workload = Microbenchmark(mp_fraction=0.0)
        spec = workload.generate(random.Random(1), 2, make_catalog(4))
        assert spec.procedure == "micro"
        assert len(spec.read_set) == 10
        assert spec.read_set == spec.write_set
        assert {key[1] for key in spec.read_set} == {2}
        hot = [key for key in spec.read_set if key[0] == "hot"]
        assert len(hot) == 1

    def test_multipartition_spec_two_partitions_one_hot_each(self):
        workload = Microbenchmark(mp_fraction=1.0)
        spec = workload.generate(random.Random(1), 0, make_catalog(4))
        partitions = {key[1] for key in spec.read_set}
        assert len(partitions) == 2
        assert 0 in partitions
        hot = [key for key in spec.read_set if key[0] == "hot"]
        assert len(hot) == 2
        assert {key[1] for key in hot} == partitions

    def test_single_partition_cluster_never_multipartition(self):
        workload = Microbenchmark(mp_fraction=1.0)
        spec = workload.generate(random.Random(1), 0, make_catalog(1))
        assert {key[1] for key in spec.read_set} == {0}

    def test_archive_access_generated(self):
        workload = Microbenchmark(archive_fraction=1.0)
        spec = workload.generate(random.Random(1), 0, make_catalog(2))
        assert any(key[0] == "arch" for key in spec.read_set)

    def test_keys_unique_within_txn(self):
        workload = Microbenchmark(mp_fraction=0.5)
        rng = random.Random(3)
        catalog = make_catalog(4)
        for _ in range(50):
            spec = workload.generate(rng, 1, catalog)
            assert len(spec.read_set) >= 9  # archive swap may collide once

    def test_cold_predicate(self):
        workload = Microbenchmark(archive_fraction=0.5)
        predicate = workload.cold_predicate()
        assert predicate(("arch", 0, 1))
        assert not predicate(("cold", 0, 1))
        assert Microbenchmark().cold_predicate() is None

    def test_deterministic_given_rng(self):
        workload = Microbenchmark(mp_fraction=0.3)
        catalog = make_catalog(4)
        a = [workload.generate(random.Random(9), 0, catalog) for _ in range(5)]
        b = [workload.generate(random.Random(9), 0, catalog) for _ in range(5)]
        assert a == b
