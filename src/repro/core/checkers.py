"""Correctness checkers: replica consistency and serializability.

Calvin's guarantees are checkable end-to-end in this reproduction
because transactions execute real logic on real stores:

- **Replica consistency** — all replicas fed the same input log must
  hold byte-identical partition states (determinism).
- **Serializability / determinism** — re-executing the committed history
  serially, in the agreed global order, on a single reference store must
  yield (a) the same per-transaction outcome the cluster reported and
  (b) exactly the cluster's final state.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.errors import ConsistencyError
from repro.partition.partitioner import Key
from repro.txn.context import DELETED, TxnContext
from repro.txn.ollp import run_logic
from repro.txn.procedures import ProcedureRegistry
from repro.txn.result import TxnStatus
from repro.txn.transaction import Transaction


def check_replica_consistency(cluster) -> int:
    """Raise :class:`ConsistencyError` unless all replicas' stores match.

    Compared per partition against replica 0 (which hosts everything),
    so partial-replication layouts — where replicas host different
    partition subsets — are checked on exactly the hosted overlap.
    Returns the number of ``(replica, partition)`` stores compared
    against replica 0's.
    """
    catalog = cluster.catalog
    compared = 0
    for replica in range(1, cluster.config.num_replicas):
        hosted = catalog.hosted_partitions(replica)
        diverged = [
            partition
            for partition in hosted
            if cluster.node(replica, partition).store.fingerprint()
            != cluster.node(0, partition).store.fingerprint()
        ]
        if diverged:
            raise ConsistencyError(
                f"replica {replica} diverged from replica 0 on partitions "
                f"{diverged}"
            )
        compared += len(hosted)
    return compared


def check_epoch_contiguity(cluster) -> int:
    """Every node's input log covers a gap-free epoch range.

    A sequencer that skipped an epoch (e.g. a fault dropped the batch
    between agreement and logging) would leave a hole that deterministic
    replay cannot bridge. Safe to run mid-flight: a frozen (crashed)
    node's log simply stops early, which is still contiguous. Returns
    the number of log entries inspected.
    """
    inspected = 0
    for node_id, node in sorted(cluster.nodes.items()):
        epochs = [entry.epoch for entry in node.input_log]
        for prior, current in zip(epochs, epochs[1:]):
            if current != prior + 1:
                raise ConsistencyError(
                    f"{node_id}: input-log epoch gap {prior} -> {current}"
                )
        inspected += len(epochs)
    return inspected


def check_no_double_apply(cluster) -> int:
    """No transaction is sequenced or executed twice.

    Duplicated network messages (ClientSubmit, SubBatch, ReplicaBatch,
    Learn) must be absorbed by the idempotent intake layers; if one
    slips through, a transaction shows up at two sequence positions or
    finishes twice on some scheduler. Returns transactions inspected.
    """
    inspected = 0
    for replica in range(cluster.config.num_replicas):
        seen: Dict[int, Any] = {}
        for entry in cluster.merged_log(replica):
            for index, txn in enumerate(entry.txns):
                seq = (entry.epoch, entry.origin_partition, index)
                if txn.txn_id in seen:
                    raise ConsistencyError(
                        f"replica {replica}: txn {txn.txn_id} sequenced twice "
                        f"(at {seen[txn.txn_id]} and {seq})"
                    )
                seen[txn.txn_id] = seq
                inspected += 1
    for node_id, node in sorted(cluster.nodes.items()):
        trace = node.scheduler.execution_trace
        if trace is not None and len(trace) != len(set(trace)):
            duplicated = sorted({seq for seq in trace if trace.count(seq) > 1})
            raise ConsistencyError(
                f"{node_id}: executed sequence(s) {duplicated[:3]} twice"
            )
    return inspected


def check_no_lost_commits(cluster) -> int:
    """Every completion the cluster reported is backed by the input log.

    A result whose sequence position is absent from replica 0's merged
    log would be unrecoverable — replay could never reproduce it.
    Requires ``record_history=True``. Returns completions inspected.
    """
    logged = set()
    for entry in cluster.merged_log(replica=0):
        for index in range(len(entry.txns)):
            logged.add((entry.epoch, entry.origin_partition, index))
    for seq, txn, _status in cluster.history:
        if seq not in logged:
            raise ConsistencyError(
                f"lost commit: txn {txn.txn_id} completed at seq {seq} "
                "but that position is not in replica 0's input log"
            )
    return len(cluster.history)


def check_replica_prefix_consistency(cluster) -> int:
    """Replicas that executed the same transactions hold the same state.

    The end-of-run :func:`check_replica_consistency` needs quiescence;
    this variant is safe *during* a run (including mid-fault): a peer
    partition is only compared against replica 0 when both have executed
    exactly the same set of sequence positions — a lagging (or crashed)
    peer is simply skipped, a diverged one is caught the moment it
    catches up. Requires execution traces on every replica
    (``record_history=True``). Returns the number of partitions compared.
    """
    compared = 0
    for partition in range(cluster.config.num_partitions):
        reference = cluster.node(0, partition)
        if reference.scheduler.execution_trace is None:
            raise ConsistencyError(
                "execution traces are off; build the cluster with "
                "record_history=True"
            )
        reference_seqs = set(reference.scheduler.execution_trace)
        for replica in range(1, cluster.config.num_replicas):
            if not cluster.catalog.is_hosted(replica, partition):
                continue  # partial replication: no such node
            peer = cluster.node(replica, partition)
            if set(peer.scheduler.execution_trace or ()) != reference_seqs:
                continue  # lagging or ahead; nothing comparable yet
            if peer.store.fingerprint() != reference.store.fingerprint():
                raise ConsistencyError(
                    f"replica {replica} partition {partition} diverged from "
                    f"replica 0 after the same {len(reference_seqs)} executions"
                )
            compared += 1
    return compared


def reference_execution(
    initial_data: Dict[Key, Any],
    history: List[Tuple[Any, Transaction, TxnStatus]],
    registry: ProcedureRegistry,
) -> Tuple[Dict[Key, Any], List[TxnStatus]]:
    """Serially execute ``history`` (sorted by sequence) on one store.

    Returns the reference final state and the per-transaction statuses
    the serial execution produced.
    """
    store: Dict[Key, Any] = dict(initial_data)
    statuses: List[TxnStatus] = []
    for _seq, txn, _reported in sorted(history, key=lambda entry: entry[0]):
        reads = {key: store[key] for key in txn.read_set if key in store}
        context = TxnContext(txn, reads)
        status, _value = run_logic(registry.get(txn.procedure), context)
        statuses.append(status)
        if status is TxnStatus.COMMITTED:
            for key, value in context.writes.items():
                if value is DELETED:
                    store.pop(key, None)
                else:
                    store[key] = value
    return store, statuses


def check_conflict_order(cluster) -> int:
    """Independent serializability evidence from execution traces.

    Each replica-0 scheduler records the order in which transactions
    actually *finished* on its partition. Deterministic locking promises
    that conflicting transactions finish in global sequence order on
    every partition they share: a later-sequenced writer cannot finish
    before any earlier toucher of the key, and a later-sequenced reader
    cannot finish before an earlier writer. This check walks each
    partition's trace and verifies exactly that — no re-execution, so it
    is independent of :func:`check_serializability`. Returns the number
    of trace entries verified.

    Requires ``record_history=True`` (traces ride along with history).
    """
    txn_by_seq = {seq: txn for seq, txn, _status in cluster.history}
    route = cluster.catalog.route
    verified = 0
    for partition in range(cluster.config.num_partitions):
        scheduler = cluster.node(0, partition).scheduler
        trace = scheduler.execution_trace
        if trace is None:
            raise ConsistencyError(
                "execution traces are off; build the cluster with "
                "record_history=True"
            )
        max_touch: Dict[Key, Any] = {}
        max_write: Dict[Key, Any] = {}
        for seq in trace:
            txn = txn_by_seq.get(seq)
            if txn is None:
                # Executed on this partition but replied elsewhere before
                # history recording began (warm-up); skip footprint lookup.
                continue
            # The keys this partition locked for the transaction, under
            # the routing of its own epoch (keys move between epochs).
            _, write_keys, read_only = route(txn, seq[0])[partition]
            for key in write_keys:
                prior = max_touch.get(key)
                if prior is not None and prior > seq:
                    raise ConsistencyError(
                        f"partition {partition}: writer {seq} finished after "
                        f"conflicting {prior} on {key!r} despite earlier order"
                    )
            for key in read_only:
                prior = max_write.get(key)
                if prior is not None and prior > seq:
                    raise ConsistencyError(
                        f"partition {partition}: reader {seq} finished after "
                        f"conflicting writer {prior} on {key!r}"
                    )
            for key in write_keys:
                max_touch[key] = max(max_touch.get(key, seq), seq)
                max_write[key] = max(max_write.get(key, seq), seq)
            for key in read_only:
                max_touch[key] = max(max_touch.get(key, seq), seq)
            verified += 1
    return verified


def check_serializability(cluster) -> int:
    """Verify the cluster behaved as a serial execution of its history.

    Returns the number of transactions checked. Requires the cluster to
    have been built with ``record_history=True``.
    """
    # A RESTART of an independent transaction is a wait-die victim (the
    # 2PC baseline): it applied nothing and ran again later, so the
    # replay skips it. An OLLP RESTART stays: the serial recheck
    # re-derives it.
    history = [
        entry
        for entry in cluster.sorted_history()
        if entry[2] is not TxnStatus.RESTART or entry[1].dependent
    ]
    reference_state, reference_statuses = reference_execution(
        cluster.initial_data, history, cluster.registry
    )
    reported_statuses = [status for _seq, _txn, status in history]
    if reference_statuses != reported_statuses:
        for index, (ref, got) in enumerate(zip(reference_statuses, reported_statuses)):
            if ref != got:
                seq, txn, _ = history[index]
                raise ConsistencyError(
                    f"outcome mismatch at seq {seq} ({txn.procedure}): "
                    f"serial reference says {ref}, cluster reported {got}"
                )
    cluster_state = cluster.final_state()
    if cluster_state != reference_state:
        missing = reference_state.keys() - cluster_state.keys()
        extra = cluster_state.keys() - reference_state.keys()
        differing = [
            key
            for key in reference_state.keys() & cluster_state.keys()
            if reference_state[key] != cluster_state[key]
        ]
        raise ConsistencyError(
            "final state differs from serial reference: "
            f"{len(missing)} missing, {len(extra)} extra, "
            f"{len(differing)} differing (e.g. {sorted(map(repr, differing))[:3]})"
        )
    return len(history)
