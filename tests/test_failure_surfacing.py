"""Engine bugs must surface, never be swallowed by the simulation."""

import random

import pytest

from repro import (
    CalvinDB,
    ClientProfile,
    ClusterConfig,
    ConfigError,
    DeterminismViolation,
    FootprintViolation,
    TxnSpec,
    Workload,
    build_cluster,
)
from repro.core.checkers import check_replica_consistency, reference_execution
from repro.partition import FuncPartitioner
from repro.txn import Footprint
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


# -- planted footprint violations -------------------------------------------
# One per way a procedure can break its footprint contract, each caught
# (or, for a mutating reconnaissance, shown harmless) by a cluster run.

ACCT = ("acct", 0)
GHOST = ("ghost", 0)


def clean_logic(ctx):
    ctx.write(ACCT, (ctx.read(ACCT) or 0) + 1)


def under_declared_read_logic(ctx):
    ctx.read(ACCT)
    ctx.read(GHOST)


def stray_write_logic(ctx):
    ctx.write(ACCT, 0)
    ctx.delete(GHOST)


def clean_reconnoiter(read_fn, args):
    keys = [("acct", partition) for partition in range(args)]
    return Footprint.create(keys, keys, token=read_fn(ACCT))


def clean_recheck(ctx):
    return ctx.read(ACCT) == ctx.txn.footprint_token


_SEEN = []


def mutating_reconnoiter(read_fn, args):
    _SEEN.append(args)
    return clean_reconnoiter(read_fn, args)


def impure_reconnoiter(read_fn, args):
    return Footprint.create([("acct", random.randrange(args))], [])


def lambda_token_reconnoiter(read_fn, args):
    return Footprint.create([ACCT], [ACCT], token=lambda: 1)


def wandering_recheck(ctx):
    return ctx.read(GHOST) is None


def writing_recheck(ctx):
    ctx.write(ACCT, 1000)
    return True


class _PlantedWorkload(Workload):
    """Every client submits one planted procedure; independent ones
    declare ``footprint``, dependent ones reconnoiter theirs."""

    name = "planted"

    def __init__(self, procedure, footprint=(), partitions=1):
        self.procedure = procedure
        self.footprint = footprint
        self.partitions = partitions

    def register(self, registry):
        registry.register(self.procedure)

    def build_partitioner(self, num_partitions):
        return FuncPartitioner(num_partitions, lambda key: key[1] % num_partitions)

    def initial_data(self, catalog):
        return {("acct", partition): 1 for partition in range(self.partitions)}

    def generate(self, rng, origin_partition, catalog):
        return TxnSpec.create(
            "p", self.partitions, self.footprint, self.footprint,
            dependent=self.procedure.is_dependent,
        )


def _run_planted(workload, engine="core", **config):
    cluster = build_cluster(
        ClusterConfig(num_partitions=workload.partitions, engine=engine, **config),
        workload=workload,
    )
    cluster.load_workload_data()
    cluster.add_clients(ClientProfile(per_partition=1, max_txns=3))
    cluster.run(duration=0.1)
    cluster.quiesce()
    return cluster


def _dependent(reconnoiter, recheck=clean_recheck):
    return Procedure("p", clean_logic, reconnoiter=reconnoiter, recheck=recheck)


def _replicas_agree(cluster):
    assert cluster.metrics.committed == 3
    assert _SEEN
    check_replica_consistency(cluster)


def _over_declared(cluster):
    (name,) = cluster.auditor.over_declared_procedures
    assert cluster.auditor.procedures[name].over_reads == 3  # GHOST, per txn


#: (case, planted procedure, declared footprint, config, expected): an
#: exception the run must raise, or a check over the finished cluster.
PLANTED = [
    ("undeclared-read", Procedure("p", under_declared_read_logic),
     [ACCT], {}, FootprintViolation),
    ("undeclared-delete", Procedure("p", stray_write_logic),
     [ACCT], {}, FootprintViolation),
    ("ambient-reconnoiter", _dependent(impure_reconnoiter),
     [], {"sanitize": True}, DeterminismViolation),
    ("mutating-reconnoiter", _dependent(mutating_reconnoiter),
     [], {"num_replicas": 2, "replication_mode": "async"}, _replicas_agree),
    ("wandering-recheck", _dependent(clean_reconnoiter, wandering_recheck),
     [], {}, FootprintViolation),
    ("writing-recheck", _dependent(clean_reconnoiter, writing_recheck),
     [], {}, FootprintViolation),
    ("lambda-token", _dependent(lambda_token_reconnoiter),
     [], {}, ConfigError),
    ("over-declaration", Procedure("p", clean_logic),
     [ACCT, GHOST], {"audit_footprints": True}, _over_declared),
]


class TestPlantedViolations:
    """The footprint contract is enforced where footprints are used:
    each planted violation fails the run that executes it."""

    @pytest.mark.parametrize(
        "procedure, footprint, config, expected",
        [row[1:] for row in PLANTED], ids=[row[0] for row in PLANTED],
    )
    def test_run_catches(self, procedure, footprint, config, expected):
        workload = _PlantedWorkload(procedure, footprint)
        if isinstance(expected, type):
            with pytest.raises(expected):
                _run_planted(workload, **config)
        else:
            expected(_run_planted(workload, **config))

    def test_writing_recheck_on_the_star_master(self):
        # Two partitions, so star runs the transaction on its master,
        # the third copy of the recheck call besides the core executor
        # (the table above) and the serial re-execution (below).
        workload = _PlantedWorkload(
            _dependent(clean_reconnoiter, writing_recheck), partitions=2
        )
        with pytest.raises(FootprintViolation, match="recheck of 'p' wrote") as caught:
            _run_planted(workload, "star")
        assert any(entry.path.name == "master.py" for entry in caught.traceback)

    def test_writing_recheck_in_reexecution(self):
        registry = build_cluster(
            ClusterConfig(num_partitions=1),
            workload=_PlantedWorkload(_dependent(clean_reconnoiter, writing_recheck)),
        ).registry
        txn = Transaction.create(1, "p", 1, [ACCT], [ACCT], dependent=True, footprint_token=1)
        with pytest.raises(FootprintViolation, match="read-only"):
            reference_execution(
                {ACCT: 1}, [((0, 0, 0), txn, TxnStatus.COMMITTED)], registry
            )


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
