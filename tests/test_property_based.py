"""Property-based tests (hypothesis) on core invariants."""

import itertools
import pickle
from math import inf

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    CalvinCluster,
    ClientProfile,
    ClusterConfig,
    Microbenchmark,
    TxnSpec,
    check_serializability,
)
from repro.partition import FootprintKeys
from repro.scheduler import DeterministicLockManager
from repro.sim import Network, Simulator, wan_topology
from repro.storage import KVStore, ZigZagCheckpointer
from repro.txn.transaction import SequencedTxn, Transaction

# ---------------------------------------------------------------------------
# Lock manager: deterministic grants match a reference model
# ---------------------------------------------------------------------------

KEYS = ["a", "b", "c", "d"]

txn_footprints = st.lists(
    st.tuples(
        st.sets(st.sampled_from(KEYS), min_size=0, max_size=3),  # reads
        st.sets(st.sampled_from(KEYS), min_size=0, max_size=3),  # writes
    ).filter(lambda rw: rw[0] | rw[1]),
    min_size=1,
    max_size=8,
)


@given(txn_footprints)
@settings(max_examples=200, deadline=None)
def test_lock_manager_grants_all_eventually_in_order(footprints):
    """Acquiring in order and releasing each ready txn must eventually
    grant every transaction, in a serial order consistent with conflicts."""
    ready = []
    manager = DeterministicLockManager(ready.append)
    stxns = []
    for index, (reads, writes) in enumerate(footprints):
        txn = Transaction.create(index + 1, "p", None, reads, writes)
        stxn = SequencedTxn((0, 0, index), txn, None)
        stxns.append(stxn)
        manager.acquire(stxn, reads, writes)

    completed = []
    guard = 0
    while len(completed) < len(stxns):
        guard += 1
        assert guard < 10_000, "lock manager failed to drain (deadlock?)"
        assert ready, "no ready transaction but work remains (stall)"
        stxn = ready.pop(0)
        completed.append(stxn)
        manager.release(stxn)

    # Conflicting pairs must complete in sequence order.
    position = {stxn.seq: i for i, stxn in enumerate(completed)}
    for i, first in enumerate(stxns):
        for second in stxns[i + 1:]:
            w1 = set(first.txn.write_set)
            w2 = set(second.txn.write_set)
            conflict = (
                (w1 & second.txn.all_keys()) or (w2 & first.txn.all_keys())
            )
            if conflict:
                assert position[first.seq] < position[second.seq]
    assert manager.active_txns == 0


def _grant_schedule(batch, steps, rng, via_plan=True):
    """Run ``batch`` through one lock manager with each transaction's
    keys requested in an ``rng``-drawn order: acquire in sequence order,
    interleaved by ``steps`` with releases of the earliest ready
    transaction. Returns everything a grant decision can show."""
    ready = []
    manager = DeterministicLockManager(ready.append)
    pending = [
        SequencedTxn((0, 0, index), Transaction.create(index + 1, "p", None, reads, writes), None)
        for index, (reads, writes) in enumerate(batch)
    ]
    pending.reverse()
    released = set()

    def acquire():
        stxn = pending.pop()
        reads, writes = list(stxn.txn.read_set), list(stxn.txn.write_set)
        if via_plan:
            read_only = [key for key in reads if key not in writes]
            rng.shuffle(writes)
            rng.shuffle(read_only)
            manager.acquire_plan(stxn, tuple(writes), tuple(read_only))
        else:  # the raw footprint: acquire() does the set algebra
            rng.shuffle(reads)
            rng.shuffle(writes)
            manager.acquire(stxn, reads, writes)

    for release_first in itertools.chain(steps, itertools.repeat(True)):
        waiting = [stxn for stxn in ready if stxn.seq not in released]
        if waiting and (release_first or not pending):
            earliest = min(waiting)
            released.add(earliest.seq)
            manager.release(earliest)
        elif pending:
            acquire()
        else:
            break
    assert len(released) == len(batch)
    assert manager.active_txns == 0 and manager.queued_requests == 0
    assert not manager._queues
    return [stxn.seq for stxn in ready], manager.grants, manager.immediate_grants


# Three keys: most transactions share one, so sole-holder markers get
# promoted and queues of readers and writers form.
lock_batches = st.lists(
    st.tuples(
        st.lists(st.sampled_from(KEYS[:3]), max_size=3, unique=True),  # reads
        st.lists(st.sampled_from(KEYS[:3]), max_size=3, unique=True),  # writes
    ).filter(lambda rw: rw[0] or rw[1]),
    min_size=1,
    max_size=10,
)


@given(
    lock_batches,
    st.lists(st.booleans(), max_size=30),
    st.randoms(use_true_random=False),
    st.randoms(use_true_random=False),
)
@settings(max_examples=200, deadline=None)
def test_grants_ignore_the_order_a_transaction_requests_its_keys_in(batch, steps, rng_a, rng_b):
    """Footprints are stored in declared order, not sorted: sound only
    because the order of one transaction's lock requests cannot move a
    grant. Two independent key permutations, and the raw acquire(),
    give one ready sequence, one grant count, one immediate-grant count."""
    first = _grant_schedule(batch, steps, rng_a)
    assert _grant_schedule(batch, steps, rng_b) == first
    assert _grant_schedule(batch, steps, rng_b, via_plan=False) == first


# ---------------------------------------------------------------------------
# Footprints: one canonical, stored-once form
# ---------------------------------------------------------------------------

footprint_keys = st.one_of(
    st.integers(-3, 30),
    st.text("abc", max_size=2),
    st.tuples(st.sampled_from(["hot", "cold"]), st.integers(0, 3), st.integers(0, 12)),
)
key_lists = st.lists(footprint_keys, max_size=12)


def _canonical(keys):
    return tuple(dict.fromkeys(keys))


@given(key_lists, key_lists, st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_footprint_has_one_canonical_form(reads, writes, rng):
    """Whatever iterable or multiplicity a footprint arrives in, the
    stored value is the duplicate-free tuple in declared order (first
    occurrence wins); an unordered set is taken in repr order."""
    txn = Transaction.create(1, "p", None, reads, writes)
    spec = TxnSpec.create("p", None, reads, writes)
    for record in (txn, spec):
        assert type(record.read_set) is type(record.write_set) is FootprintKeys
        assert record.read_set == _canonical(reads)
        assert record.write_set == _canonical(writes)
        # Equal footprints are one object, unequal ones are not.
        assert (record.write_set is record.read_set) == (_canonical(reads) == _canonical(writes))

    def repeated(keys):
        # Repeats after the first occurrences move nothing.
        again = keys[: len(keys) // 2]
        rng.shuffle(again)
        return iter(keys + again)

    again = Transaction.create(1, "p", None, repeated(reads), repeated(writes))
    assert again == txn and hash(again) == hash(txn) and repr(again) == repr(txn)
    assert TxnSpec.create("p", None, repeated(reads), repeated(writes)) == spec

    # A set has no declared order, and its iteration order follows the
    # salted hash: whatever order it was filled in, repr order is stored.
    shuffled = list(reads)
    rng.shuffle(shuffled)
    unordered = Transaction.create(1, "p", None, set(reads), frozenset(shuffled))
    assert unordered.read_set == tuple(sorted(set(reads), key=repr))
    assert unordered.write_set is unordered.read_set

    # Already canonical: taken as it stands, by identity (the retry
    # path: every resubmission of a spec shares the spec's two tuples).
    assert FootprintKeys(txn.read_set) is txn.read_set
    retry = Transaction.create(2, "p", None, spec.read_set, spec.write_set, restarts=1)
    assert retry.read_set is spec.read_set and retry.write_set is spec.write_set

    clone = pickle.loads(pickle.dumps(txn))
    assert type(clone) is Transaction and clone == txn
    assert type(clone.read_set) is type(clone.write_set) is FootprintKeys
    assert (clone.write_set is clone.read_set) == (txn.write_set is txn.read_set)
    try:
        clone.read_set = ()
    except AttributeError:  # dataclasses.FrozenInstanceError
        pass
    else:
        raise AssertionError("an unpickled transaction is not sealed")


# ---------------------------------------------------------------------------
# KVStore fingerprint: permutation invariance
# ---------------------------------------------------------------------------

@given(
    st.dictionaries(st.integers(0, 50), st.integers(-5, 5), min_size=0, max_size=20),
    st.randoms(use_true_random=False),
)
@settings(max_examples=100, deadline=None)
def test_fingerprint_permutation_invariant(data, rng):
    store_a, store_b = KVStore(), KVStore()
    items = list(data.items())
    for key, value in items:
        store_a.put(key, value)
    rng.shuffle(items)
    for key, value in items:
        store_b.put(key, value)
    assert store_a.fingerprint() == store_b.fingerprint()


# ---------------------------------------------------------------------------
# Zig-Zag checkpoint: snapshot equals begin-time state under any
# interleaving of writes/deletes with dump slices
# ---------------------------------------------------------------------------

operations = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.integers(0, 9), st.integers(0, 99)),
        st.tuples(st.just("delete"), st.integers(0, 9), st.none()),
        st.tuples(st.just("dump"), st.integers(1, 4), st.none()),
    ),
    max_size=30,
)


@given(
    st.dictionaries(st.integers(0, 9), st.integers(0, 99), max_size=10),
    operations,
)
@settings(max_examples=200, deadline=None)
def test_zigzag_snapshot_is_begin_time_state(initial, ops):
    store = KVStore()
    store.load_bulk(dict(initial))
    expected = store.snapshot()
    checkpointer = ZigZagCheckpointer(store, 0)
    checkpointer.begin(epoch=0, now=0.0)
    for op, key, value in ops:
        if op == "put":
            store.put(key, value)
        elif op == "delete":
            store.delete(key)
        else:
            checkpointer.dump_slice(key)
    while checkpointer.pending:
        checkpointer.dump_slice(3)
    snapshot = checkpointer.finish(now=1.0)
    assert snapshot.data == expected


# ---------------------------------------------------------------------------
# Whole system: serializability and determinism for random seeds/shapes
# ---------------------------------------------------------------------------

@given(
    seed=st.integers(0, 10_000),
    partitions=st.integers(1, 3),
    mp_fraction=st.sampled_from([0.0, 0.3, 1.0]),
    hot=st.sampled_from([1, 5, 100]),
)
@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_random_cluster_serializable(seed, partitions, mp_fraction, hot):
    workload = Microbenchmark(
        mp_fraction=mp_fraction, hot_set_size=hot, cold_set_size=60
    )
    cluster = CalvinCluster(
        ClusterConfig(num_partitions=partitions, seed=seed), workload=workload
    )
    cluster.load_workload_data()
    cluster.add_clients(ClientProfile(per_partition=4, max_txns=8))
    cluster.run(duration=0.15)
    cluster.quiesce()
    assert check_serializability(cluster) == 4 * partitions * 8


# ---------------------------------------------------------------------------
# Simulator: event ordering is stable under arbitrary schedules
# ---------------------------------------------------------------------------

@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=30))
@settings(max_examples=100, deadline=None)
def test_simulator_executes_in_time_then_fifo_order(delays):
    sim = Simulator()
    fired = []
    for index, delay in enumerate(delays):
        sim.schedule(delay, lambda i=index, d=delay: fired.append((d, i)))
    sim.run()
    # Stable sort by time: equal-time callbacks keep scheduling order.
    assert fired == sorted(fired, key=lambda pair: (pair[0], pair[1]))


# ---------------------------------------------------------------------------
# Network: per-pair FIFO delivery matches a reference model under moves,
# crashes, (re-)registrations and held sources
# ---------------------------------------------------------------------------

ADDRESSES = ["a", "b", "c"]
sends = st.tuples(
    st.just("send"),
    st.sampled_from(ADDRESSES),
    st.sampled_from(ADDRESSES),
    st.sampled_from([0, 300, 5_000]),
)
network_ops = st.lists(
    st.one_of(
        # Sends twice over: a move or a crash only shows on a pair that
        # carries traffic on both sides of it.
        sends,
        sends,
        st.tuples(st.just("advance"), st.sampled_from([0.0, 0.0004, 0.002, 0.03])),
        st.tuples(st.just("place"), st.sampled_from(ADDRESSES), st.integers(0, 1)),
        st.tuples(st.just("unregister"), st.sampled_from(ADDRESSES)),
        st.tuples(st.just("register"), st.sampled_from(ADDRESSES)),
        # A crashed node's sends: parked by the network, re-sent on release.
        st.tuples(st.just("hold"), st.sampled_from(ADDRESSES)),
        st.tuples(st.just("release"), st.sampled_from(ADDRESSES)),
    ),
    min_size=8,
    max_size=60,
)


def _topology():
    return wan_topology(lan_latency=0.001, wan_latency=0.01, wan_bandwidth=1e6)


def _reference_deliveries(ops):
    """The contract, with plain dicts: a per-pair last arrival, the link's
    transfer time, an epsilon clamp, and the handler (here: its
    registration number) looked up at delivery time. A held source's
    sends follow the node-side algorithm the network's holds replaced:
    each is parked in a list, uncounted, and re-sent in order at release.
    Returns the deliveries and ``messages_sent`` after every op."""
    topology, now, sites, last, pending, delivered = _topology(), 0.0, {}, {}, [], []
    registrations = itertools.count()
    handlers = {"a": next(registrations), "b": next(registrations)}
    held, sent, scheduled = {}, [], [0]

    def drain(until):
        due = sorted(entry for entry in pending if entry[0] <= until)
        pending[:] = [entry for entry in pending if entry[0] > until]
        for arrival, _, src, dst, message in due:
            if dst in handlers:
                delivered.append((dst, src, message, arrival, handlers[dst]))

    def send(src, dst, message, size):
        if src in held:
            held[src].append((dst, message, size))
            return
        if src == dst:
            spec = topology.local
        elif sites.get(src, 0) == sites.get(dst, 0):
            spec = topology.intra_site
        else:
            spec = topology.inter_site
        arrival = now + spec.transfer_time(size)
        if (src, dst) in last and arrival <= last[src, dst]:
            arrival = last[src, dst] + 1e-9
        last[src, dst] = arrival
        scheduled[0] += 1  # messages_sent, and the heap's tie-break
        pending.append((arrival, scheduled[0], src, dst, message))

    for index, op in enumerate(ops):
        if op[0] == "send":
            _, src, dst, size = op
            send(src, dst, index, size)
        elif op[0] == "hold":
            held.setdefault(op[1], [])
        elif op[0] == "release":
            for dst, message, size in held.pop(op[1], []):
                send(op[1], dst, message, size)
        elif op[0] == "advance":
            drain(now + op[1])
            now = now + op[1]
        elif op[0] == "place":
            sites[op[1]] = op[2]
        elif op[0] == "unregister":
            handlers.pop(op[1], None)
        elif op[1] not in handlers:
            handlers[op[1]] = next(registrations)
        sent.append(scheduled[0])
    drain(inf)
    return delivered, sent


@given(network_ops)
@settings(max_examples=200, deadline=None)
def test_network_matches_reference_model(ops):
    sim = Simulator()
    network = Network(sim, _topology())
    delivered = []
    registrations = itertools.count()
    registered = set()

    def register(address):
        number = next(registrations)
        registered.add(address)
        network.register(
            address,
            lambda src, msg: delivered.append((address, src, msg, sim.now, number)),
        )

    register("a")
    register("b")
    sent = []
    for index, op in enumerate(ops):
        if op[0] == "send":
            network.send(op[1], op[2], index, size=op[3])
        elif op[0] == "hold":
            network.hold(op[1])
        elif op[0] == "release":
            network.release(op[1])
        elif op[0] == "advance":
            sim.run(until=sim.now + op[1])
        elif op[0] == "place":
            network.place(op[1], op[2])
        elif op[0] == "unregister":
            registered.discard(op[1])
            network.unregister(op[1])
        elif op[1] not in registered:
            register(op[1])
        sent.append(network.messages_sent)
    sim.run()
    assert (delivered, sent) == _reference_deliveries(ops)
