"""Engine bugs must surface, never be swallowed by the simulation."""

import random

import pytest

from repro import (
    CalvinDB,
    ClientProfile,
    ClusterConfig,
    FootprintViolation,
    TxnSpec,
    Workload,
    build_cluster,
)
from repro.core.checkers import reference_execution
from repro.partition import FuncPartitioner
from repro.txn.procedures import Procedure
from repro.txn.result import TxnStatus
from repro.txn.transaction import Transaction


class TestExecutorFailuresSurface:
    def test_footprint_violation_propagates_from_cluster_run(self):
        db = CalvinDB(num_partitions=1)

        @db.procedure("rogue")
        def rogue(ctx):
            ctx.write("not-declared", 1)

        with pytest.raises(FootprintViolation):
            db.execute("rogue", None, read_set=["a"], write_set=["a"])

    def test_procedure_crash_propagates(self):
        db = CalvinDB(num_partitions=1)

        @db.procedure("divzero")
        def divzero(ctx):
            return 1 // 0

        with pytest.raises(ZeroDivisionError):
            db.execute("divzero", None, read_set=["a"], write_set=["a"])

    def test_state_not_corrupted_after_crash(self):
        db = CalvinDB(num_partitions=1)

        @db.procedure("boom")
        def boom(ctx):
            ctx.write("k", 1)
            raise RuntimeError("mid-logic crash")

        @db.procedure("ok")
        def ok(ctx):
            ctx.write("k", 42)

        with pytest.raises(RuntimeError):
            db.execute("boom", None, read_set=["k"], write_set=["k"])
        # The crash happened before the write was applied (writes apply
        # after logic returns), so the store is untouched...
        assert db.get("k") is None


class _RogueWorkload(Workload):
    """One transaction that makes one access outside its footprint
    {reads: r, both; writes: w0, w1, both}; what the access raised,
    inside the procedure, lands in ``caught``."""

    name = "rogue"

    def __init__(self, offence):
        self.offence = offence
        self.caught = []

    def _logic(self, ctx):
        ctx.read(("r", 0)), ctx.read(("both", 0)), ctx.write(("w", 0), 1)  # all legal
        try:
            {
                "read": lambda: ctx.read(("stray", 0)),
                "read-unwritten-write-only": lambda: ctx.read(("w", 1)),
                "write": lambda: ctx.write(("r", 0), 1),
                "delete": lambda: ctx.delete(("stray", 0)),
            }[ctx.args]()
        except FootprintViolation as violation:
            self.caught.append(violation)
            raise

    def register(self, registry):
        registry.register(Procedure("rogue", self._logic))

    def build_partitioner(self, num_partitions):
        return FuncPartitioner(num_partitions, lambda key: key[1])

    def initial_data(self, catalog):
        return {("r", 0): 1, ("both", 0): 2}

    def generate(self, rng: random.Random, origin_partition, catalog):
        return TxnSpec.create(
            "rogue", self.offence,
            [("r", 0), ("both", 0)], [("w", 0), ("w", 1), ("both", 0)],
        )


OFFENCES = ["read", "read-unwritten-write-only", "write", "delete"]


class TestFootprintEnforcedEverywhere:
    """Every engine, and the checker's serial re-execution, raises from
    inside the procedure at the offending access — the stored footprint
    is sorted tuples, the enforcement is as strict as with hash sets."""

    @pytest.mark.parametrize("offence", OFFENCES)
    @pytest.mark.parametrize("engine", ["core", "star", "baseline"])
    def test_engine_raises_at_the_offending_access(self, engine, offence):
        workload = _RogueWorkload(offence)
        cluster = build_cluster(
            ClusterConfig(num_partitions=1, engine=engine), workload=workload
        )
        cluster.load_workload_data()
        cluster.add_clients(ClientProfile(per_partition=1, max_txns=1))
        with pytest.raises(FootprintViolation):
            cluster.run(duration=0.1)
        (violation,) = workload.caught
        assert "declared write set" in str(violation) or "declared read set" in str(violation)
        assert cluster.metrics.committed == 0

    @pytest.mark.parametrize("offence", OFFENCES)
    def test_serial_reexecution_raises_too(self, offence):
        workload = _RogueWorkload(offence)
        spec = workload.generate(random.Random(0), 0, None)
        txn = Transaction.create(1, spec.procedure, spec.args, spec.read_set, spec.write_set)
        cluster = build_cluster(ClusterConfig(num_partitions=1), workload=workload)
        with pytest.raises(FootprintViolation):
            reference_execution(
                workload.initial_data(None), [((0, 0, 0), txn, TxnStatus.COMMITTED)],
                cluster.registry,
            )
        assert len(workload.caught) == 1


class TestWideTransactions:
    def test_three_partition_write_transaction(self):
        db = CalvinDB(num_partitions=3, seed=2)

        @db.procedure("scatter")
        def scatter(ctx):
            total = 0
            for key in sorted(ctx.txn.read_set, key=repr):
                value = ctx.read(key) or 0
                total += value
                ctx.write(key, value * 2)
            return total

        # Find keys on three distinct partitions.
        keys_by_partition = {}
        index = 0
        while len(keys_by_partition) < 3:
            key = f"key-{index}"
            keys_by_partition.setdefault(
                db.cluster.catalog.partition_of(key), key
            )
            index += 1
        keys = sorted(keys_by_partition.values())
        db.load({key: 10 for key in keys})
        result = db.execute("scatter", None, read_set=keys, write_set=keys)
        assert result.committed
        assert result.value == 30
        assert all(db.get(key) == 20 for key in keys)

    def test_wide_transaction_single_remote_read_round(self):
        # However many participants, the protocol is one remote-read
        # exchange — latency stays within a couple of epochs.
        db = CalvinDB(num_partitions=4, seed=3)

        @db.procedure("wide")
        def wide(ctx):
            for key in sorted(ctx.txn.write_set, key=repr):
                ctx.write(key, (ctx.read(key) or 0) + 1)

        keys = [f"w{i}" for i in range(16)]
        db.load({key: 0 for key in keys})
        result = db.execute("wide", None, read_set=keys, write_set=keys)
        assert result.committed
        assert result.latency < 0.04
