"""Unit tests for the transaction model: requests, contexts, procedures, OLLP."""

import dataclasses
import importlib
import inspect
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ClusterConfig
from repro.core import CalvinCluster
from repro.errors import ConfigError, FootprintViolation, TransactionAborted
from repro.net.messages import ClientSubmit, TxnReply, new_reply, new_submit
from repro.partition import Catalog, FootprintKeys, FuncPartitioner
from repro.partition.catalog import (
    MIGRATION_PROC,
    NodeId,
    is_migration_txn,
    migration_route,
    node_address,
)
from repro.txn import (
    DELETED,
    Footprint,
    Procedure,
    ProcedureRegistry,
    SequencedTxn,
    Transaction,
    TxnContext,
    reconnoiter,
)
from repro.txn.result import TransactionResult, TxnStatus, new_result
from repro.txn.transaction import new_sequenced
from repro.workloads import Microbenchmark


def make_catalog(partitions=4):
    config = ClusterConfig(num_partitions=partitions)
    return Catalog(config, FuncPartitioner(partitions, lambda key: key[1]))


def route_value(route):
    """Everything a route says, for comparing two routes by value."""
    return dict(route), route.participants, route.active, route.reply, route.read_holders


def make_txn(read_set, write_set, txn_id=1, dependent=False, token=None):
    return Transaction.create(
        txn_id=txn_id,
        procedure="p",
        args=None,
        read_set=read_set,
        write_set=write_set,
        dependent=dependent,
        footprint_token=token,
    )


class TestTransaction:
    def test_footprint_normalized(self):
        # A sequence keeps its declared order, first occurrence winning;
        # a set has none (hash order is salted), so it is taken in repr
        # order.
        txn = make_txn([("k", 1), ("k", 0), ("k", 1)], [("k", 1)])
        assert type(txn.read_set) is FootprintKeys
        assert txn.read_set == (("k", 1), ("k", 0))
        assert txn.write_set == (("k", 1),)
        assert txn.all_keys() == {("k", 0), ("k", 1)}
        unordered = make_txn({("k", 10), ("k", 9), ("k", 2)}, frozenset())
        assert unordered.read_set == (("k", 10), ("k", 2), ("k", 9))
        assert unordered.write_set == ()


class TestRoute:
    """Phase-1 read/write set analysis: ``Catalog.route`` is the one
    place that answers who participates, who is active, who replies and
    which keys each participant holds."""

    def test_participants(self):
        catalog = make_catalog()
        txn = make_txn([("k", 0), ("k", 2)], [("k", 2)])
        assert catalog.route(txn, 0).participants == {0, 2}

    def test_active_participants_are_writers(self):
        catalog = make_catalog()
        txn = make_txn([("k", 0), ("k", 1)], [("k", 1)])
        route = catalog.route(txn, 0)
        assert route.active == {1}
        assert route.read_holders == {0, 1}

    def test_read_only_has_one_active(self):
        catalog = make_catalog()
        txn = make_txn([("k", 3), ("k", 1)], [])
        route = catalog.route(txn, 0)
        assert route.active == {1}
        assert route.reply == 1

    def test_reply_partition_lowest_active(self):
        catalog = make_catalog()
        txn = make_txn([("k", 0)], [("k", 3), ("k", 2)])
        assert catalog.route(txn, 0).reply == 2

    def test_empty_footprint_rejected(self):
        catalog = make_catalog()
        txn = make_txn([], [])
        with pytest.raises(ConfigError):
            catalog.route(txn, 0)

    def test_multipartition(self):
        catalog = make_catalog()
        assert len(catalog.route(make_txn([("k", 0)], [("k", 1)]), 0).participants) > 1
        assert len(catalog.route(make_txn([("k", 0)], [("k", 0)]), 0).participants) == 1

    def test_slices_are_the_local_footprint_and_lock_plan(self):
        catalog = make_catalog()
        txn = make_txn(
            [("a", 0), ("b", 0), ("c", 1)], [("b", 0), ("c", 1), ("d", 1)]
        )
        slices = catalog.route(txn, 0)
        assert set(slices) == {0, 1}
        assert slices[0] == ((("a", 0), ("b", 0)), (("b", 0),), (("a", 0),))
        assert slices[1] == ((("c", 1),), (("c", 1), ("d", 1)), ())

    def test_split_writes_keeps_buffer_order(self):
        catalog = make_catalog()
        txn = make_txn([], [("a", 0), ("b", 1), ("c", 0), ("d", 2)])
        buffer = {("c", 0): 1, ("b", 1): 2, ("a", 0): 3}
        parts = catalog.route(txn, 0).split_writes(buffer)
        assert parts == {0: {("c", 0): 1, ("a", 0): 3}, 1: {("b", 1): 2}}
        assert list(parts[0]) == [("c", 0), ("a", 0)]

    def test_route_is_a_pure_function(self):
        # Same transaction, same routing version: the same route, built
        # afresh each time (the sequenced transaction carries it, so
        # nothing is memoised), and a replay's fresh catalog agrees.
        catalog = make_catalog()
        txn = make_txn([("k", 0)], [("k", 1)])
        first, again = catalog.route(txn, 0), catalog.route(txn, 9)
        assert first is not again
        assert route_value(first) == route_value(again)
        assert route_value(make_catalog().route(txn, 0)) == route_value(first)


def reference_split_slice(local, bucket_of):
    """``split_slice`` as ``Catalog.route`` used it before the one-pass
    split: cut every key of every side by a per-key owner lookup."""
    shared = local[0] is local[1]
    pieces = {}
    for part, keys in enumerate(local):
        if shared and part == 1:
            continue
        for key in keys:
            pieces.setdefault(bucket_of(key), ([], [], []))[part].append(key)
    out = {}
    for bucket, (reads, writes, read_only) in pieces.items():
        read_keys = tuple(reads)
        out[bucket] = (read_keys, read_keys if shared else tuple(writes), tuple(read_only))
    return out


def reference_route(catalog, txn, epoch):
    """What ``Catalog.route`` answers, computed the long way: each key's
    owner looked up alone, the footprint cut by a ``{key: owner}`` map.
    Returns (slices, participants, active, read_holders, reply)."""
    interned = catalog._interned
    if is_migration_txn(txn):
        source, dest = migration_route(txn)
        both = interned((source, dest))
        side = ((), txn.write_set, ())
        return {source: side, dest: side}, both, both, interned((source,)), dest
    reads, writes = txn.read_set, txn.write_set
    if reads is writes:
        read_only = ()
    else:
        written = set(writes)
        read_only = tuple(key for key in reads if key not in written)
    owner = {key: catalog.partition_of_at(key, epoch) for key in reads + writes}
    read_holders = interned(owner[key] for key in reads)
    writers = interned(owner[key] for key in writes)
    participants = interned(read_holders | writers)
    if not participants:
        raise ConfigError("empty footprint")
    active = writers or interned((min(participants),))
    whole = (reads, writes, read_only)
    if len(participants) == 1:
        slices = {min(participants): whole}
    else:
        slices = reference_split_slice(whole, owner.__getitem__)
    return slices, participants, active, read_holders, min(active)


_keys = st.lists(
    st.tuples(st.just("k"), st.integers(0, 3), st.integers(0, 4)),
    max_size=8,
    unique=True,
)


@st.composite
def _footprints(draw):
    """(reads, writes): read-modify-write, disjoint, read-only,
    write-only or overlapping."""
    shape = draw(st.sampled_from(["rmw", "disjoint", "read-only", "write-only", "overlap"]))
    keys = draw(_keys)
    if shape == "rmw":
        return keys, keys
    if shape == "read-only":
        return keys, []
    if shape == "write-only":
        return [], keys
    cut = draw(st.integers(0, len(keys)))
    if shape == "disjoint":
        return keys[:cut], keys[cut:]
    return keys, draw(st.lists(st.sampled_from(keys), unique=True)) if keys else []


class TestRouteProperty:
    """``Catalog.route`` cuts a footprint in one pass over the owner
    lists; it must say exactly what the per-key cut said."""

    @given(
        partitions=st.integers(1, 4),
        footprint=_footprints(),
        moves=st.dictionaries(
            st.tuples(st.just("k"), st.integers(0, 3), st.integers(0, 4)),
            st.integers(0, 3),
            max_size=6,
        ),
        epoch=st.integers(0, 4),
    )
    @settings(max_examples=300, deadline=None)
    def test_route_matches_the_per_key_cut(self, partitions, footprint, moves, epoch):
        catalog = Catalog(
            ClusterConfig(num_partitions=partitions),
            FuncPartitioner(partitions, lambda key: key[1] % partitions),
        )
        moves = {key: dest % partitions for key, dest in moves.items()}
        if moves:
            catalog.arm_override(2, moves)
        reads, writes = footprint
        txn = make_txn(reads, writes)
        if reads == writes:
            assert txn.read_set is txn.write_set
        if not reads and not writes:
            with pytest.raises(ConfigError):
                catalog.route(txn, epoch)
            return
        self._assert_same(catalog, txn, epoch)

    @given(source=st.integers(0, 3), offset=st.integers(1, 3), keys=_keys.filter(bool))
    @settings(max_examples=50, deadline=None)
    def test_a_migration_keeps_its_pinned_route(self, source, offset, keys):
        catalog = make_catalog()
        dest = (source + offset) % 4
        catalog.arm_override(1, {key: dest for key in keys})
        txn = Transaction.create(
            txn_id=7,
            procedure=MIGRATION_PROC,
            args=(0, source, dest),
            read_set=keys,
            write_set=keys,
        )
        for epoch in (0, 1):
            self._assert_same(catalog, txn, epoch)

    @staticmethod
    def _assert_same(catalog, txn, epoch):
        route = catalog.route(txn, epoch)
        slices, participants, active, read_holders, reply = reference_route(
            catalog, txn, epoch
        )
        assert list(route.items()) == list(slices.items())  # key order too
        for (reads, writes, _), (ref_reads, ref_writes, _) in zip(
            route.values(), slices.values()
        ):
            assert (reads is writes) == (ref_reads is ref_writes)
        assert route.participants is participants
        assert route.active is active
        assert route.read_holders is read_holders
        assert route.reply == reply


class TestSequencedTxn:
    def test_ordering_is_epoch_origin_index(self):
        txn = make_txn([("k", 0)], [])
        early = SequencedTxn((1, 0, 5), txn, None)
        later_origin = SequencedTxn((1, 1, 0), txn, None)
        later_epoch = SequencedTxn((2, 0, 0), txn, None)
        assert early < later_origin < later_epoch
        assert early.epoch == 1


def _record_classes():
    """Every public record class of the modules whose instances replicas
    share by reference, whichever idiom builds it (frozen dataclass,
    ``NamedTuple``, or ``Transaction``'s sealed slots)."""
    modules = (
        "repro.txn.transaction",
        "repro.txn.result",
        "repro.workloads.base",
        "repro.net.messages",
        "repro.paxos.messages",
        "repro.baseline.messages",
        "repro.storage.inputlog",
        "repro.partition.catalog",
    )
    for module in map(importlib.import_module, modules):
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ != module.__name__ or name.startswith("_"):
                continue
            if dataclasses.is_dataclass(cls) or hasattr(cls, "_fields"):
                yield cls


def _field_names(cls):
    if dataclasses.is_dataclass(cls):
        return [f.name for f in dataclasses.fields(cls)]
    return list(cls._fields)


def _sample(cls):
    """An instance to poke at; no record here validates field types."""
    if cls is Transaction:  # built only through Transaction.create
        return make_txn([("k", 0)], [("k", 0)])
    return cls(*[0] * len(_field_names(cls)))


class TestReadOnlyRecords:
    """Requests, replies and messages are pure input (paper §2-3): one
    node's bug must not leak into another's through a shared object.
    ``AttributeError`` is the base the dataclass idiom
    (``FrozenInstanceError``) and the tuple idiom share."""

    def test_covers_every_idiom(self):
        names = {cls.__name__ for cls in _record_classes()}
        assert {
            "Transaction", "SequencedTxn", "TransactionResult", "TxnSpec",
            "ClientSubmit", "TxnReply", "Accept", "Decision", "LogEntry", "NodeId",
        } <= names
        assert "TxnStatus" not in names and "Catalog" not in names

    @pytest.mark.parametrize("cls", _record_classes(), ids=lambda cls: cls.__name__)
    def test_assign_and_delete_refused(self, cls):
        record = _sample(cls)
        names = _field_names(cls)
        assert names
        before = [getattr(record, name) for name in names]
        for name in names:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert [getattr(record, name) for name in names] == before

    def test_transaction_refusal_is_the_dataclass_one(self):
        txn = make_txn([("k", 0)], [("k", 0)])
        with pytest.raises(dataclasses.FrozenInstanceError):
            txn.txn_id = 5
        with pytest.raises(AttributeError):
            txn.brand_new = 1
        assert txn.txn_id == 1

    def test_transaction_direct_construction_names_create(self):
        with pytest.raises(TypeError, match="create"):
            Transaction(1, "p", None, frozenset(), frozenset())

    def test_sealing_has_no_memo_back_door(self):
        # Every slot is a constructor field, so a sealed transaction has
        # no slot that even object.__setattr__ may fill after the fact.
        catalog = make_catalog()
        txn = make_txn([("k", 0), ("k", 1)], [("k", 1)])
        catalog.route(txn, 0)
        slots = {name for cls in type(txn).__mro__ for name in getattr(cls, "__slots__", ())}
        assert slots == {f.name for f in dataclasses.fields(txn) if f.init}
        with pytest.raises(AttributeError):
            object.__setattr__(txn, "_route", catalog.route(txn, 0))

    def test_memo_state_is_not_identity(self):
        catalog = make_catalog()
        fresh = make_txn([("k", 0)], [("k", 1)])
        used = make_txn([("k", 0)], [("k", 1)])
        catalog.route(used, 0)
        assert used == fresh
        assert repr(used) == repr(fresh)
        assert hash(used) == hash(fresh)

    def test_transaction_pickles_sealed(self):
        txn = Transaction.create(
            7, "p", {"n": 1}, [("k", 0)], [("k", 1)],
            origin_partition=2, client=("client", 0, 3), dependent=True,
            footprint_token=(("k", 0), 4), submit_time=0.5, restarts=2,
        )
        clone = pickle.loads(pickle.dumps(txn))
        assert type(clone) is Transaction
        assert clone == txn
        assert type(clone.read_set) is type(clone.write_set) is FootprintKeys
        with pytest.raises(dataclasses.FrozenInstanceError):
            clone.txn_id = 5

    def test_sequenced_txn_identity_is_seq_alone(self):
        # args is a dict: hashing must not reach it.
        one = Transaction.create(1, "p", {"n": 1}, [("k", 0)], [])
        same = Transaction.create(1, "p", {"n": 1}, [("k", 0)], [])
        assert one is not same and one == same
        a, b = SequencedTxn((1, 0, 0), one, None), SequencedTxn((1, 0, 0), same, None)
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert a <= b and a >= b and not a < b
        assert a != SequencedTxn((1, 0, 1), one, None)
        later = [SequencedTxn((2, 0, 0), one, None), SequencedTxn((1, 1, 0), one, None), a]
        assert [s.seq for s in sorted(later)] == [(1, 0, 0), (1, 1, 0), (2, 0, 0)]


def _builder_cases():
    txn = make_txn([("k", 0)], [("k", 1)])
    result = TransactionResult(
        txn_id=1, status=TxnStatus.COMMITTED, value=0.5, submit_time=0.1,
        complete_time=0.2, restarts=1, granted_time=0.15,
    )
    cases = [
        (new_result, TransactionResult, result._asdict()),
        (new_reply, TxnReply, {"result": result}),
        (new_submit, ClientSubmit, {"txn": txn}),
        (new_sequenced, SequencedTxn, {"seq": (1, 0, 2), "txn": txn, "route": None}),
    ]
    return [pytest.param(*case, id=case[1].__name__) for case in cases]


class TestRecordBuilders:
    """The one-C-call builders beside the hot records build exactly the
    record the class's own constructor builds (docs/performance.md,
    "Record construction")."""

    @pytest.mark.parametrize("builder, cls, fields", _builder_cases())
    def test_builder_builds_its_record(self, builder, cls, fields):
        record = builder(tuple(fields.values()))
        expected = cls(**fields)
        assert record == expected and tuple(record) == tuple(expected)
        assert type(record) is cls
        assert len(record) == len(cls._fields)
        for name in cls._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)

    def test_replies_reach_the_client_whole(self):
        """A refused submit and a committed one both reach the client as
        a TxnReply carrying every field of a TransactionResult."""
        config = ClusterConfig(
            num_partitions=1,
            seed=3,
            admission_policy="backpressure",
            admission_epoch_budget=1,
            admission_queue_capacity=1,
        )
        workload = Microbenchmark(hot_set_size=50, cold_set_size=100)
        cluster = CalvinCluster(config, workload=workload)
        cluster.load_workload_data()
        cluster.start()
        probe = ("probe", 0)
        replies = []
        cluster.network.register(probe, lambda src, message: replies.append(message))
        rng = cluster.rngs.stream("probe", 0)
        txns = []
        # Budget 1 admits the first, the queue of 1 takes the second,
        # and the third is refused with the backlog's hint.
        for _ in range(3):
            spec = cluster.workload.generate(rng, 0, cluster.catalog)
            txn = Transaction.create(
                cluster.next_txn_id(), spec.procedure, spec.args,
                spec.read_set, spec.write_set, client=probe,
            )
            txns.append(txn)
            cluster.network.send(probe, node_address(NodeId(0, 0)), ClientSubmit(txn))
        cluster.sim.run(until=0.1)

        by_id = {reply.result.txn_id: reply for reply in replies}
        assert sorted(by_id) == [txn.txn_id for txn in txns]
        for reply in replies:
            assert type(reply) is TxnReply and type(reply.result) is TransactionResult
            assert len(reply.result) == len(TransactionResult._fields) == 7
        refused = by_id[txns[2].txn_id].result
        assert refused == TransactionResult(
            txn_id=txns[2].txn_id,
            status=TxnStatus.REJECTED,
            value=config.epoch_duration * 2,
            submit_time=0.0,
            complete_time=refused.complete_time,
            restarts=0,
        )
        assert refused.retry_after == config.epoch_duration * 2
        committed = by_id[txns[0].txn_id].result
        assert committed == TransactionResult(
            txn_id=txns[0].txn_id,
            status=TxnStatus.COMMITTED,
            value=committed.value,
            submit_time=0.0,
            complete_time=committed.complete_time,
            restarts=0,
            granted_time=committed.granted_time,
        )
        assert 0.0 < committed.granted_time <= committed.complete_time
        assert by_id[txns[1].txn_id].result.status is TxnStatus.COMMITTED


class TestTxnContext:
    def test_read_from_snapshot(self):
        txn = make_txn([("k", 0)], [])
        ctx = TxnContext(txn, {("k", 0): 42})
        assert ctx.read(("k", 0)) == 42

    def test_missing_key_reads_none(self):
        txn = make_txn([("k", 0)], [])
        ctx = TxnContext(txn, {})
        assert ctx.read(("k", 0)) is None

    def test_read_outside_footprint_rejected(self):
        txn = make_txn([("k", 0)], [])
        ctx = TxnContext(txn, {})
        with pytest.raises(FootprintViolation):
            ctx.read(("other", 0))

    def test_write_only_key_not_readable_before_write(self):
        txn = make_txn([], [("k", 0)])
        ctx = TxnContext(txn, {})
        with pytest.raises(FootprintViolation):
            ctx.read(("k", 0))

    def test_read_your_writes(self):
        txn = make_txn([], [("k", 0)])
        ctx = TxnContext(txn, {})
        ctx.write(("k", 0), 7)
        assert ctx.read(("k", 0)) == 7

    def test_write_outside_write_set_rejected(self):
        txn = make_txn([("k", 0)], [])
        ctx = TxnContext(txn, {})
        with pytest.raises(FootprintViolation):
            ctx.write(("k", 0), 1)

    def test_delete_buffers_tombstone(self):
        txn = make_txn([("k", 0)], [("k", 0)])
        ctx = TxnContext(txn, {("k", 0): 5})
        ctx.delete(("k", 0))
        assert ctx.writes[("k", 0)] is DELETED
        assert ctx.read(("k", 0)) is None

    def test_delete_outside_write_set_rejected(self):
        txn = make_txn([("k", 0)], [])
        ctx = TxnContext(txn, {})
        with pytest.raises(FootprintViolation):
            ctx.delete(("k", 0))

    def test_cannot_write_sentinel(self):
        txn = make_txn([], [("k", 0)])
        ctx = TxnContext(txn, {})
        with pytest.raises(FootprintViolation):
            ctx.write(("k", 0), DELETED)

    def test_abort_raises(self):
        txn = make_txn([("k", 0)], [])
        ctx = TxnContext(txn, {})
        with pytest.raises(TransactionAborted):
            ctx.abort("nope")

    def test_random_deterministic_per_txn_id(self):
        a = TxnContext(make_txn([("k", 0)], [], txn_id=9), {})
        b = TxnContext(make_txn([("k", 0)], [], txn_id=9), {})
        c = TxnContext(make_txn([("k", 0)], [], txn_id=10), {})
        assert a.random.random() == b.random.random()
        assert a.random.random() != c.random.random()


class TestProcedureRegistry:
    def test_register_and_get(self):
        registry = ProcedureRegistry()
        proc = Procedure("p", lambda ctx: None)
        registry.register(proc)
        assert registry.get("p") is proc
        assert "p" in registry

    def test_duplicate_rejected(self):
        registry = ProcedureRegistry()
        registry.register(Procedure("p", lambda ctx: None))
        with pytest.raises(ConfigError):
            registry.register(Procedure("p", lambda ctx: None))

    def test_unknown_rejected(self):
        with pytest.raises(ConfigError):
            ProcedureRegistry().get("ghost")

    def test_define_decorator(self):
        registry = ProcedureRegistry()

        @registry.define("hello", logic_cpu=1e-6)
        def hello(ctx):
            return "hi"

        assert registry.get("hello").logic is hello
        assert registry.names() == ["hello"]

    def test_dependent_needs_both_hooks(self):
        with pytest.raises(ConfigError):
            Procedure("p", lambda ctx: None, reconnoiter=lambda r, a: None)

    def test_negative_cpu_rejected(self):
        with pytest.raises(ConfigError):
            Procedure("p", lambda ctx: None, logic_cpu=-1)


class TestOllp:
    def make_dependent(self):
        def recon(read_fn, args):
            pointer = read_fn("pointer")
            return Footprint.create({"pointer", pointer}, {pointer}, token=pointer)

        return Procedure(
            "dep", lambda ctx: None, reconnoiter=recon, recheck=lambda ctx: True
        )

    def test_reconnoiter_builds_footprint(self):
        proc = self.make_dependent()
        footprint = reconnoiter(proc, lambda key: "target", None)
        assert footprint.read_set == ("pointer", "target")  # a set: repr order
        assert footprint.write_set == ("target",)
        assert footprint.token == "target"

    def test_reconnoiter_on_independent_rejected(self):
        proc = Procedure("p", lambda ctx: None)
        with pytest.raises(ConfigError):
            reconnoiter(proc, lambda key: None, None)

    def test_reconnoiter_must_return_footprint(self):
        proc = Procedure(
            "bad", lambda ctx: None,
            reconnoiter=lambda read_fn, args: "oops",
            recheck=lambda ctx: True,
        )
        with pytest.raises(ConfigError):
            reconnoiter(proc, lambda key: None, None)

    def test_create_normalizes_iterables(self):
        # Reconnaissance code builds sets, lists, generators — create()
        # stores them all as a transaction does, ready to be sequenced.
        footprint = Footprint.create(
            ["b", "a", "b"], (key for key in ("b",))
        )
        assert footprint.read_set == ("b", "a")
        assert footprint.write_set == ("b",)
        assert type(footprint.read_set) is type(footprint.write_set) is FootprintKeys
        shared = Footprint.create(["a", "b"], ["a", "b"])
        assert shared.write_set is shared.read_set

    def test_footprint_token_pickle_round_trip(self):
        # The token rides in the replicated input log, so it must
        # survive pickling (delivery-style tuple-of-tuples evidence).
        token = ((("district", 1, 2), 3041), (("district", 1, 3), None))
        footprint = Footprint.create({"a"}, {"a"}, token=token)
        clone = pickle.loads(pickle.dumps(footprint))
        assert clone == footprint
        assert clone.token == token
        txn = make_txn({"a"}, {"a"}, dependent=True, token=token)
        wire = pickle.loads(pickle.dumps(txn))
        assert wire.footprint_token == token
