"""What a sequenced transaction leaves behind.

Calvin keeps every sequenced request (the input log is what a replica
is rebuilt from), so the bytes one logged ``Transaction`` retains are
the slope of the simulator's memory. docs/performance.md ("Memory: what
a sequenced transaction leaves behind") has the per-site table; this
file pins the slope and the representation that pays for it: a
footprint is stored once, as tuples, never as a hash set, and the
route a transaction was sequenced under is not kept with it.
"""

from __future__ import annotations

import dataclasses
import gc
import tracemalloc

from repro import CalvinCluster, ClientProfile, ClusterConfig, Microbenchmark
from repro.partition import FootprintKeys
from repro.partition.catalog import Route

# Measured in this shape: 377 B on CPython 3.10, 3.11 and 3.12 (721 B
# with the memoised Route, 1 456 B with the frozenset and the
# sorted-tuple memo before that).
RETAINED_BYTES_PER_TXN = 400


def _micro_cluster():
    cluster = CalvinCluster(
        ClusterConfig(num_partitions=2, seed=2012),
        workload=Microbenchmark(hot_set_size=1000, cold_set_size=1000),
        record_history=False,
    )
    cluster.load_workload_data()
    # Enough clients that an epoch batch holds the log entry's own
    # overhead down, as a saturated run does.
    cluster.add_clients(ClientProfile(per_partition=60))
    cluster.start()
    for client in cluster.clients:
        client.start()
    return cluster


def _logged(cluster):
    return [txn for entry in cluster.merged_log() for txn in entry.txns]


def test_growth_per_sequenced_transaction_stays_under_a_kilobyte():
    cluster = _micro_cluster()
    sim = cluster.sim
    sim.run(until=0.1)  # clients in flight, lazily built caches exist
    tracemalloc.start()
    try:
        marks = []
        for until in (0.3, 0.5):  # N, then 2N
            sim.run(until=until)
            gc.collect()
            marks.append((len(_logged(cluster)), tracemalloc.get_traced_memory()[0]))
    finally:
        tracemalloc.stop()
    (txns_n, bytes_n), (txns_2n, bytes_2n) = marks
    assert txns_n > 1000 and txns_2n - txns_n > 1000
    per_txn = (bytes_2n - bytes_n) / (txns_2n - txns_n)
    assert per_txn < RETAINED_BYTES_PER_TXN, f"{per_txn:.0f} B per sequenced transaction"


def _reachable(value, seen):
    """``value`` and everything inside it, through plain containers."""
    if id(value) in seen:
        return
    seen.add(id(value))
    yield value
    if isinstance(value, dict):
        for item in value.items():
            yield from _reachable(item, seen)
    elif isinstance(value, (tuple, list, set, frozenset)):
        for item in value:
            yield from _reachable(item, seen)


def test_a_logged_transaction_keeps_no_hash_set_of_its_footprint():
    cluster = _micro_cluster()
    cluster.sim.run(until=0.15)
    logged = _logged(cluster)
    assert len(logged) > 100
    for txn in logged:
        assert type(txn.read_set) is type(txn.write_set) is FootprintKeys
        assert txn.write_set is txn.read_set  # read-modify-write: one object
        fields = [getattr(txn, f.name) for f in dataclasses.fields(txn) if f.init]
        assert not any(
            isinstance(value, (set, frozenset)) for value in _reachable(fields, set())
        )
    # The keys themselves are the loaded objects, so neither is key
    # storage the log's own (tests/test_gc_quiet.py pins that half).


def test_a_logged_transaction_keeps_no_route():
    # The route travels on the SequencedTxn in flight; the log holds
    # what a replica is rebuilt from, and that is the transaction alone.
    cluster = _micro_cluster()
    cluster.sim.run(until=0.15)
    logged = _logged(cluster)
    assert len(logged) > 100
    fields = [
        getattr(txn, f.name) for txn in logged for f in dataclasses.fields(txn)
    ]
    reachable = list(_reachable([cluster.merged_log(), fields], set()))
    assert not any(isinstance(value, Route) for value in reachable)
