"""Unit tests for the YCSB-style workload and the Zipf generator."""

import random
from collections import Counter

import pytest

from repro import ClusterConfig, ConfigError
from repro.partition import Catalog
from repro.workloads.ycsb import YcsbWorkload, ZipfGenerator


def make_catalog(partitions=2, workload=None):
    workload = workload or YcsbWorkload(records_per_partition=100)
    config = ClusterConfig(num_partitions=partitions)
    return Catalog(config, workload.build_partitioner(partitions))


class TestZipfGenerator:
    def test_uniform_at_theta_zero(self):
        zipf = ZipfGenerator(10, 0.0)
        rng = random.Random(1)
        counts = Counter(zipf.sample(rng) for _ in range(10_000))
        assert min(counts.values()) > 700  # each of 10 ranks ~1000

    def test_skewed_head_dominates(self):
        zipf = ZipfGenerator(1000, 0.99)
        rng = random.Random(2)
        counts = Counter(zipf.sample(rng) for _ in range(10_000))
        head_share = sum(counts[rank] for rank in range(10)) / 10_000
        assert head_share > 0.3  # top-10 of 1000 keys take >30% of traffic

    def test_higher_theta_more_skew(self):
        rng_a, rng_b = random.Random(3), random.Random(3)
        mild = ZipfGenerator(100, 0.5)
        harsh = ZipfGenerator(100, 1.5)
        mild_head = sum(1 for _ in range(5000) if mild.sample(rng_a) == 0)
        harsh_head = sum(1 for _ in range(5000) if harsh.sample(rng_b) == 0)
        assert harsh_head > mild_head

    def test_samples_in_range(self):
        zipf = ZipfGenerator(7, 0.9)
        rng = random.Random(4)
        assert all(0 <= zipf.sample(rng) < 7 for _ in range(200))

    def test_validation(self):
        with pytest.raises(ConfigError):
            ZipfGenerator(0, 1.0)
        with pytest.raises(ConfigError):
            ZipfGenerator(10, -0.1)


class TestYcsbWorkload:
    def test_validation(self):
        with pytest.raises(ConfigError):
            YcsbWorkload(records_per_partition=2, keys_per_txn=4)
        with pytest.raises(ConfigError):
            YcsbWorkload(read_fraction=1.5)

    def test_initial_data(self):
        workload = YcsbWorkload(records_per_partition=50)
        catalog = make_catalog(2, workload)
        data = workload.initial_data(catalog)
        assert len(data) == 100
        assert catalog.partition_of(("ycsb", 1, 3)) == 1

    def test_read_only_spec(self):
        workload = YcsbWorkload(records_per_partition=100, read_fraction=1.0)
        spec = workload.generate(random.Random(1), 0, make_catalog(2, workload))
        assert spec.procedure == "ycsb_read"
        assert spec.write_set == ()
        assert len(spec.read_set) == 4

    def test_update_spec(self):
        workload = YcsbWorkload(records_per_partition=100, read_fraction=0.0)
        spec = workload.generate(random.Random(1), 0, make_catalog(2, workload))
        assert spec.procedure == "ycsb_update"
        assert spec.read_set == spec.write_set

    def test_multipartition_split(self):
        workload = YcsbWorkload(
            records_per_partition=100, mp_fraction=1.0, keys_per_txn=4
        )
        spec = workload.generate(random.Random(2), 0, make_catalog(4, workload))
        partitions = {key[1] for key in spec.read_set}
        assert len(partitions) == 2 and 0 in partitions

    def test_single_partition_cluster(self):
        workload = YcsbWorkload(records_per_partition=100, mp_fraction=1.0)
        spec = workload.generate(random.Random(2), 0, make_catalog(1, workload))
        assert {key[1] for key in spec.read_set} == {0}

    def test_end_to_end_serializable(self):
        from repro import check_serializability
        from tests.conftest import run_bounded_cluster

        workload = YcsbWorkload(
            records_per_partition=50, theta=1.2, read_fraction=0.5, mp_fraction=0.3
        )
        cluster = run_bounded_cluster(
            workload, ClusterConfig(num_partitions=2, seed=6),
            clients_per_partition=6, max_txns=20,
        )
        assert check_serializability(cluster) == 2 * 6 * 20
