"""Shared fixtures: a tiny bank workload and cluster factories."""

from __future__ import annotations

import random
from typing import Dict

import pytest

from repro import (
    CalvinCluster,
    CalvinDB,
    ClientProfile,
    ClusterConfig,
    Microbenchmark,
    ProcedureRegistry,
    TxnSpec,
    Workload,
)
from repro.partition.partitioner import FuncPartitioner
from repro.txn.procedures import Procedure


def transfer_logic(ctx):
    """Move ``amount`` between two accounts; abort on insufficient funds."""
    src, dst, amount = ctx.args
    balance = ctx.read(src) or 0
    if balance < amount:
        ctx.abort("insufficient funds")
    ctx.write(src, balance - amount)
    ctx.write(dst, (ctx.read(dst) or 0) + amount)
    return balance - amount


class BankWorkload(Workload):
    """Random transfers between accounts spread across partitions."""

    name = "bank"

    def __init__(self, accounts_per_partition: int = 50, initial_balance: int = 100):
        self.accounts_per_partition = accounts_per_partition
        self.initial_balance = initial_balance

    def register(self, registry: ProcedureRegistry) -> None:
        registry.register(Procedure("transfer", transfer_logic, logic_cpu=30e-6))

    def build_partitioner(self, num_partitions: int):
        return FuncPartitioner(num_partitions, lambda key: key[1])

    def initial_data(self, catalog) -> Dict:
        return {
            ("acct", p, i): self.initial_balance
            for p in range(catalog.num_partitions)
            for i in range(self.accounts_per_partition)
        }

    def generate(self, rng: random.Random, origin_partition: int, catalog) -> TxnSpec:
        src = ("acct", origin_partition, rng.randrange(self.accounts_per_partition))
        dst_partition = rng.randrange(catalog.num_partitions)
        dst = ("acct", dst_partition, rng.randrange(self.accounts_per_partition))
        while dst == src:
            dst = ("acct", dst_partition, rng.randrange(self.accounts_per_partition))
        keys = frozenset({src, dst})
        return TxnSpec("transfer", (src, dst, rng.randint(1, 30)), keys, keys)


@pytest.fixture
def bank_workload():
    return BankWorkload()


@pytest.fixture
def bank_db():
    """A 2-partition CalvinDB with the transfer procedure and 4 accounts."""
    db = CalvinDB(num_partitions=2, seed=42)
    db.registry.register(Procedure("transfer", transfer_logic, logic_cpu=30e-6))
    db.load({("acct", 0, 0): 100, ("acct", 0, 1): 100,
             ("acct", 1, 0): 100, ("acct", 1, 1): 100})
    return db


def run_bounded_cluster(
    workload: Workload,
    config: ClusterConfig,
    clients_per_partition: int = 10,
    max_txns: int = 25,
) -> CalvinCluster:
    """Build, run and quiesce a cluster with bounded clients."""
    cluster = CalvinCluster(config, workload=workload)
    cluster.load_workload_data()
    cluster.add_clients(ClientProfile(per_partition=clients_per_partition, max_txns=max_txns))
    cluster.run(duration=0.2)
    cluster.quiesce()
    return cluster


@pytest.fixture
def micro_workload():
    return Microbenchmark(mp_fraction=0.2, hot_set_size=20, cold_set_size=200)
