"""``repro.core.checkers.verify``: the one table of which invariants apply.

Each row of ``CHECKS`` is caught by name on a planted violation, and
the table's flags decide which rows a cluster gets: no history drops
the history rows, one replica drops the replica rows, an engine without
an agreed order keeps serializability only, and ``live=True`` keeps the
rows safe mid-run under faults.
"""

from __future__ import annotations

import pytest

from repro import ClientProfile, ClusterConfig, Microbenchmark
from repro.core.checkers import CHECKS, verify
from repro.engines import build_cluster
from repro.errors import ConsistencyError
from repro.txn.result import TxnStatus

ALL = {check.name for check in CHECKS}
HISTORY = {"serializability", "conflict order", "no lost commits", "replica prefix consistency"}
REPLICAS = {"replica consistency", "replica prefix consistency"}
LIVE = {"epoch contiguity", "no double-apply", "no lost commits", "replica prefix consistency"}


def _cluster(engine="core", num_replicas=2, record_history=True):
    """Two partitions on a hot set of two keys, so any two transactions
    of a partition conflict; run bounded and quiesced."""
    config = ClusterConfig(
        num_partitions=2, num_replicas=num_replicas, seed=3, engine=engine,
        replication_mode="async" if num_replicas > 1 else "none",
    )
    cluster = build_cluster(
        config,
        Microbenchmark(mp_fraction=0.3, hot_set_size=2, cold_set_size=60),
        record_history=record_history,
    )
    cluster.load_workload_data()
    cluster.add_clients(ClientProfile(per_partition=3, max_txns=6))
    cluster.run(duration=0.2)
    cluster.quiesce()
    assert cluster.metrics.committed > 0
    return cluster


def _swap_trace(cluster):
    trace = cluster.node(0, 0).scheduler.execution_trace
    trace[0], trace[-1] = trace[-1], trace[0]


def _drop_log_entry(cluster):
    entries = cluster.node(1, 0).input_log._entries
    del entries[len(entries) // 2]


def _execute_twice(cluster):
    trace = cluster.node(1, 0).scheduler.execution_trace
    trace.append(trace[0])


def _unlogged_commit(cluster):
    _seq, txn, _status = cluster.history[0]
    cluster.history.append(((10**6, 0, 0), txn, TxnStatus.COMMITTED))


def _set_value(replica):
    def plant(cluster):
        store = cluster.node(replica, 0).store
        key = next(iter(store.snapshot()))
        store.put(key, "planted")

    return plant


#: Planted violation -> the checkers whose names verify's error must carry.
PLANTS = {
    "swapped-trace": (_swap_trace, {"conflict order"}),
    "dropped-log-entry": (_drop_log_entry, {"epoch contiguity"}),
    "executed-twice": (_execute_twice, {"no double-apply"}),
    "unlogged-commit": (_unlogged_commit, {"no lost commits"}),
    "replica-1-value": (_set_value(1), REPLICAS),
    "replica-0-value": (_set_value(0), {"serializability"}),
}


def test_every_row_has_a_plant():
    assert set().union(*(names for _, names in PLANTS.values())) == ALL


@pytest.mark.parametrize("plant", PLANTS)
def test_planted_violation_is_named(plant):
    sabotage, names = PLANTS[plant]
    cluster = _cluster()
    assert set(verify(cluster)) == ALL
    sabotage(cluster)
    with pytest.raises(ConsistencyError) as caught:
        verify(cluster)
    failed = {line.split(":", 1)[0] for line in str(caught.value).splitlines()}
    assert names <= failed


@pytest.mark.parametrize(
    "build, live, expected",
    [
        (lambda: _cluster(engine="baseline", num_replicas=1), False, {"serializability"}),
        (lambda: _cluster(record_history=False), False, ALL - HISTORY),
        (lambda: _cluster(num_replicas=1), False, ALL - REPLICAS),
        (_cluster, True, LIVE),
    ],
    ids=["baseline", "history-off", "one-replica", "live"],
)
def test_applicable_rows(build, live, expected):
    assert set(verify(build(), live=live)) == expected
