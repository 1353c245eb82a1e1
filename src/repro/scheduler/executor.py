"""Transaction execution: the paper's five phases, as one worker process.

The process starts once the local lock manager has granted every local
lock. Worker slots model CPU concurrency: they are held while the
transaction does work, and *released* while it blocks on remote reads
(Calvin worker threads block, but the CPU runs other transactions).
Locks, however, are held across the wait — that is the lock-hold window
deterministic locking shortens relative to 2PC, and the mechanism behind
the contention-index experiment.
"""

from __future__ import annotations

from typing import Dict, TYPE_CHECKING

from repro.net.messages import REPLY_SIZE, RemoteRead, WriteSetApply, new_reply
from repro.obs import SpanKind
from repro.partition.catalog import MIGRATION_PROC, NodeId, migration_route, node_address
from repro.txn.context import TxnContext
from repro.txn.ollp import run_logic
from repro.txn.result import TxnStatus, new_result
from repro.txn.transaction import GlobalSeq, SequencedTxn

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scheduler.scheduler import Scheduler

# Phase-5 outcomes of one replica's multipartition transactions, shared
# by its schedulers: seq -> [reads snapshot, status, value, deleted,
# writes cut by partition, active participants still to apply]. The
# first active participant to run the logic leaves its outcome here; a
# later one whose own snapshot compares equal applies its part of it
# instead of running the logic again, and the last one drops it. A
# participant whose snapshot differs runs the logic itself and leaves
# the entry alone, so a diverging participant is never masked; the
# share never crosses replicas, so replicas stay independent executions.
OutcomeShare = Dict[GlobalSeq, list]
# Read once: a ``TxnStatus.X`` load takes ``EnumType.__getattr__``.
_COMMITTED = TxnStatus.COMMITTED


def run_transaction(sched: "Scheduler", stxn: SequencedTxn):
    """The worker process for one sequenced transaction (a generator).

    Spawned the moment the last local lock is granted; the generator's
    first step runs at that same virtual instant, so ``sim.now`` on
    entry is the lock-grant timestamp.

    Every participant pays its own modelled CPU, messages, locks and
    spans. In phase 5 the outcome of a multipartition transaction with
    several active participants is computed once per replica: the first
    of them to get there runs the logic and leaves the outcome in the
    scheduler's :data:`OutcomeShare`, and the others apply their part of
    it when their own snapshot compares equal. A scheduler with an
    auditor attached runs the logic itself every time.
    """
    sim = sched.sim
    granted_time = sim.now
    costs = sched.config.costs
    catalog = sched.catalog
    txn = stxn.txn
    seq = stxn.seq
    mine = sched.node_id.partition

    if txn.procedure == MIGRATION_PROC:
        # Control-plane key-range migration: its own two-sided
        # copy/purge protocol (see run_migration below).
        yield from run_migration(sched, stxn)
        return

    # Phase 1 — read/write set analysis, done once per batch by the
    # sequencer; every participant reads the record riding on ``stxn``.
    route = stxn.route
    participants = route.participants
    multipartition = len(participants) > 1
    if multipartition and sched.node_id.replica != 0:
        # Partial replication: a replica that does not host every
        # participant cannot re-execute (the remote reads it would need
        # live on partitions it doesn't have); it applies the writeset
        # replica 0 ships instead (deferred-update replication).
        hosted = catalog.hosting_of(sched.node_id.replica)
        if hosted is not None and not participants <= hosted:
            yield from apply_replicated(sched, stxn)
            return
    local_read_keys = route[mine][0]

    tracer = sched.tracer
    replica, txn_id = sched.node_id.replica, txn.txn_id

    yield sched.workers

    # Stall on any still-cold local data (only happens when the
    # sequencer's prefetch was skipped or its estimate too low — the
    # Section 4 penalty path). The disk wait holds locks AND the
    # worker: exactly the stall Calvin's prefetching exists to avoid.
    engine = sched.engine
    if engine.disk_enabled:
        cold = engine.cold_keys_of(local_read_keys)
        if cold:
            stall_start = sim.now
            yield sim.all_of([engine.fetch(key) for key in cold])
            if tracer.enabled:
                tracer.record(
                    SpanKind.DISK, stall_start, sim.now,
                    replica=replica, partition=mine,
                    txn_id=txn_id, seq=seq, detail="cold-stall",
                )
    exec_start = sim.now

    # Phase 2 — perform local reads.
    cpu = costs.txn_base_cpu + costs.read_cpu * len(local_read_keys)
    local_values = engine.store.get_many(local_read_keys)

    reads: Dict = local_values
    messages_received = 0
    if multipartition:
        active = route.active
        is_active = mine in active
        cpu += costs.multipartition_overhead_cpu
        yield cpu

        # Phase 3 — serve remote reads: push local values to every
        # *other* active participant.
        if local_read_keys:
            message = RemoteRead(seq, mine, local_values)
            targets = active - {mine}
            if sched.retain_remote_reads:
                sched.record_served_read(message, targets)
            for partition in sorted(targets):
                target = NodeId(sched.node_id.replica, partition)
                sched.send(node_address(target), message, message.size_estimate())

        if tracer.enabled:
            # Phases 2-3 (local reads + serving remote readers) are
            # on-CPU work, including the wait for a worker slot.
            tracer.record(
                SpanKind.EXECUTE, exec_start, sim.now,
                replica=replica, partition=mine, txn_id=txn_id, seq=seq,
                detail="passive" if not is_active else None,
            )

        if not is_active:
            # Passive participant: its job ends here.
            sched.workers.release()
            sched.finish_txn(stxn, None, passive=True)
            return

        # Phase 4 — collect remote read results from every other
        # partition holding read-set data. The worker is released for
        # the wait (threads block; CPUs don't), locks stay held.
        expected = route.read_holders - {mine}
        if not expected.issubset(sched.remote_reads_for(seq)):
            wait_start = sim.now
            sched.workers.release()
            while not expected.issubset(sched.remote_reads_for(seq)):
                yield sched.remote_read_arrival(seq)
            yield sched.workers
            if tracer.enabled:
                tracer.record(
                    SpanKind.REMOTE_READ_WAIT, wait_start, sim.now,
                    replica=replica, partition=mine, txn_id=txn_id, seq=seq,
                )
        reads = dict(local_values)
        for values in sched.remote_reads_for(seq).values():
            reads.update(values)
            messages_received += 1
    else:
        yield cpu
        if tracer.enabled:
            tracer.record(
                SpanKind.EXECUTE, exec_start, sim.now,
                replica=replica, partition=mine, txn_id=txn_id, seq=seq,
            )

    # Phase 5 — execute logic, apply local writes (inlined from a
    # former helper generator: one less delegated frame per txn).
    apply_start = sim.now
    procedure = sched.registry.get(txn.procedure)
    auditor = sched.auditor
    sole_executor = len(route.active) == 1
    # Every active participant runs the same logic on the same snapshot,
    # so one run per replica decides the outcome (see OutcomeShare).
    outcomes = None if sole_executor or auditor is not None else sched.outcomes
    outcome = None if outcomes is None else outcomes.get(seq)
    if outcome is not None and outcome[0] == reads:
        _, status, value, deleted, parts, _ = outcome
        outcome[5] -= 1
        if not outcome[5]:
            del outcomes[seq]
        local_writes = parts.get(mine, {})
    else:
        if auditor is None:
            context = TxnContext(txn, reads)
        else:
            context = auditor.make_context(txn, reads)
        # OLLP recheck (Section 3.2.1), then the logic.
        status, value = run_logic(procedure, context)
        deleted = context.deleted
        if sole_executor:
            # Every write is local.
            local_writes = context.writes
        else:
            # Cut once, each part in the logic's write order, which is
            # the store's apply order.
            parts = route.split_writes(context.writes)
            local_writes = parts.get(mine, {})
            if outcomes is not None and outcome is None:
                outcomes[seq] = [
                    reads, status, value, deleted, parts, len(route.active) - 1
                ]
    cpu = (
        procedure.logic_cpu
        + costs.write_cpu * len(local_writes)
        + costs.remote_read_serve_cpu * messages_received
    )
    if cpu > 0:
        yield cpu
    if status is _COMMITTED and local_writes:
        engine.store.apply_writes(local_writes, deleted)

    if multipartition and catalog.partial and sched.node_id.replica == 0:
        # Ship this partition's deterministic outcome to peer replicas
        # that host it but cannot re-execute the transaction. Aborts
        # and restarts ship too (committed=False, empty writes): the
        # peer's sequence slot must still complete.
        targets = catalog.writeset_targets(mine, participants)
        if targets:
            message = WriteSetApply(
                seq, mine, status is _COMMITTED, dict(local_writes)
            )
            for peer in targets:
                target = NodeId(peer, mine)
                sched.send(node_address(target), message, message.size_estimate())

    result = new_result(
        (txn_id, status, value, txn.submit_time, sim.now, txn.restarts, granted_time)
    )
    if tracer.enabled:
        tracer.record(
            SpanKind.APPLY, apply_start, sim.now,
            replica=replica, partition=mine, txn_id=txn_id, seq=seq,
        )
    sched.workers.release()
    report = result if mine == route.reply else None
    if report is not None and txn.client is not None and sched.node_id.replica == 0:
        sched.send(txn.client, new_reply((report,)), REPLY_SIZE)
    if auditor is not None:
        auditor.observe(txn, context, status, report is not None)
    sched.finish_txn(stxn, report, passive=False)


def run_migration(sched: "Scheduler", stxn: SequencedTxn):
    """Execute one side of a control-plane key-range migration.

    Ordered first within its flip epoch, with the full moving range
    write-locked on *both* partitions, the migration is serialized
    exactly at its sequence position: the source reads the range and
    ships it to the destination (the existing remote-read machinery,
    so recovery re-serving works unchanged), then purges the copied
    records; the destination applies the copy. Every transaction from
    the flip epoch on routes to the destination, so each replica flips
    at the identical point in its serial order.
    """
    sim = sched.sim
    granted_time = sim.now
    costs = sched.config.costs
    txn = stxn.txn
    seq = stxn.seq
    mine = sched.node_id.partition
    source, dest = migration_route(txn)
    keys = txn.write_set
    tracer = sched.tracer
    replica, txn_id = sched.node_id.replica, txn.txn_id

    yield sched.workers
    exec_start = sim.now

    if mine == source:
        # Copy-out: read the whole range (stalling on cold records if
        # the store is disk-backed), ship it, purge it.
        cold = sched.engine.cold_keys_of(keys)
        if cold:
            stall_start = sim.now
            yield sim.all_of([sched.engine.fetch(key) for key in cold])
            if tracer.enabled:
                tracer.record(
                    SpanKind.DISK, stall_start, sim.now,
                    replica=replica, partition=mine,
                    txn_id=txn_id, seq=seq, detail="cold-stall",
                )
        values = sched.engine.store.get_many(keys)
        cpu = (
            costs.txn_base_cpu
            + costs.multipartition_overhead_cpu
            + costs.read_cpu * len(keys)
        )
        yield cpu
        message = RemoteRead(seq, mine, values)
        if sched.retain_remote_reads:
            sched.record_served_read(message, {dest})
        target = NodeId(replica, dest)
        sched.send(node_address(target), message, message.size_estimate())

        # Purge: the range now lives at the destination. Deletes go
        # through the store (write watchers observe the pre-images, so
        # a concurrent checkpoint stays consistent).
        yield costs.write_cpu * len(keys)
        store = sched.engine.store
        for key in keys:
            if key in store:
                store.delete(key)
        if tracer.enabled:
            tracer.record(
                SpanKind.EXECUTE, exec_start, sim.now,
                replica=replica, partition=mine, txn_id=txn_id, seq=seq,
                detail="migration-source",
            )
        sched.workers.release()
        sched.finish_txn(stxn, None, passive=False)
        return

    # Destination: wait for the copy, apply it. The worker is released
    # for the wait (locks stay held, pinning every epoch >= flip
    # transaction over the range behind the copy-in).
    cpu = costs.txn_base_cpu + costs.multipartition_overhead_cpu
    yield cpu
    if source not in sched.remote_reads_for(seq):
        wait_start = sim.now
        sched.workers.release()
        while source not in sched.remote_reads_for(seq):
            yield sched.remote_read_arrival(seq)
        yield sched.workers
        if tracer.enabled:
            tracer.record(
                SpanKind.REMOTE_READ_WAIT, wait_start, sim.now,
                replica=replica, partition=mine, txn_id=txn_id, seq=seq,
            )
    values = sched.remote_reads_for(seq)[source]
    apply_start = sim.now
    writes = {key: val for key, val in values.items() if val is not None}
    yield costs.write_cpu * len(writes) + costs.remote_read_serve_cpu
    if writes:
        sched.engine.store.apply_writes(writes, False)
    fields = (txn_id, _COMMITTED, len(writes), txn.submit_time, sim.now, txn.restarts, granted_time)
    result = new_result(fields)
    if tracer.enabled:
        tracer.record(
            SpanKind.APPLY, apply_start, sim.now,
            replica=replica, partition=mine, txn_id=txn_id, seq=seq,
            detail="migration-dest",
        )
    sched.workers.release()
    sched.finish_txn(stxn, result, passive=False)


def apply_replicated(sched: "Scheduler", stxn: SequencedTxn):
    """Apply mode (partial replication): execute a transaction slice this
    replica cannot recompute, from the writeset replica 0 shipped.

    Entered with the local locks granted, so writes still land in global
    sequence order — determinism is preserved, only the computation is
    delegated. A passive slice (no local writes possible) just pays the
    bookkeeping cost; an active slice waits for the writeset — locks
    held, no worker consumed — then applies it.
    """
    sim = sched.sim
    costs = sched.config.costs
    txn = stxn.txn
    seq = stxn.seq
    mine = sched.node_id.partition
    tracer = sched.tracer
    replica, txn_id = sched.node_id.replica, txn.txn_id

    if mine not in stxn.route.active:
        # No writes can land on a passive participant; nothing to wait for.
        yield sched.workers
        yield costs.txn_base_cpu
        sched.workers.release()
        sched.finish_txn(stxn, None, passive=True)
        return

    message = sched.writeset_for(seq)
    if message is None:
        wait_start = sim.now
        while message is None:
            yield sched.writeset_arrival(seq)
            message = sched.writeset_for(seq)
        if tracer.enabled:
            tracer.record(
                SpanKind.REMOTE_READ_WAIT, wait_start, sim.now,
                replica=replica, partition=mine, txn_id=txn_id, seq=seq,
                detail="writeset",
            )

    yield sched.workers
    apply_start = sim.now
    cpu = costs.txn_base_cpu + costs.write_cpu * len(message.writes)
    yield cpu
    if message.committed and message.writes:
        # DELETED sentinels ride inside the writes dict, exactly as in
        # a local apply.
        sched.engine.store.apply_writes(message.writes, True)
    if tracer.enabled:
        tracer.record(
            SpanKind.APPLY, apply_start, sim.now,
            replica=replica, partition=mine, txn_id=txn_id, seq=seq,
            detail="replicated",
        )
    sched.workers.release()
    sched.finish_txn(stxn, None, passive=False)
