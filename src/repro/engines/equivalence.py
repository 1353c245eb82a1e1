"""Cross-engine equivalence oracle: same schedule, three engines.

Closed-loop clients cannot prove engine equivalence — their submit
times depend on reply latencies, so different engines would sequence
different global orders and (on non-commutative workloads) legitimately
reach different final states. The oracle therefore *scripts* the input:
one pre-generated stream of ``(txn_id, spec, partition, submit_time)``
tuples, drawn from a dedicated seeded RNG, injected at fixed virtual
times into every engine. Same schedule + same epoch boundaries ⇒ the
deterministic engines (``core``, ``star``) agree on the global sequence
and must produce **identical** terminal statuses and final states.

The lock-race baseline makes a weaker promise: every scripted
transaction reaches a terminal outcome, and the completion order is a
valid serialization order (under strict 2PL + 2PC the commit point
precedes lock release), so replaying the completion history serially
must reproduce the baseline's exact final state and statuses.

Scope: dependent (OLLP) specs are skipped at generation time — their
reconnaissance reads live state, which differs across engines at a
fixed virtual time, and the baseline rejects them outright.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Any, Dict, List, Optional, Sequence

from repro.config import ClusterConfig
from repro.core.checkers import check_serializability
from repro.engines import get_engine
from repro.errors import ConfigError, ConsistencyError
from repro.net.messages import ClientSubmit
from repro.partition.catalog import Catalog
from repro.txn.result import TxnStatus
from repro.txn.transaction import Transaction
from repro.workloads.base import TxnSpec, Workload

# Virtual-time step the drive loop advances by between progress checks.
_STEP = 0.05
_MAX_SPEC_ATTEMPTS = 1000


@dataclass(frozen=True)
class ScriptedSubmission:
    """One pre-generated transaction request."""

    txn_id: int
    partition: int
    submit_time: float
    spec: TxnSpec


@dataclass
class EngineRun:
    """Outcome of one engine's execution of a scripted schedule."""

    engine: str
    cluster: Any
    final_state: Dict[Any, Any]
    # txn_id -> terminal status (RESTART retries collapse to the final one).
    statuses: Dict[int, TxnStatus]

    @property
    def committed(self) -> int:
        return sum(
            1 for status in self.statuses.values() if status is TxnStatus.COMMITTED
        )


def scripted_schedule(
    workload: Workload,
    config: ClusterConfig,
    txns_per_partition: int = 30,
    horizon: float = 0.25,
    seed: int = 0,
) -> List[ScriptedSubmission]:
    """Pre-generate one engine-independent submission schedule."""
    catalog = Catalog(config, workload.build_partitioner(config.num_partitions))
    # A dedicated stream outside RngStreams: engines never draw from it,
    # so the schedule is identical no matter which engine consumes it.
    rng = Random((seed * 2654435761 + 97) % (2**31))
    schedule: List[ScriptedSubmission] = []
    txn_id = 0
    for partition in range(config.num_partitions):
        times = sorted(rng.uniform(0.0, horizon) for _ in range(txns_per_partition))
        for submit_time in times:
            spec = workload.generate(rng, partition, catalog)
            for _ in range(_MAX_SPEC_ATTEMPTS):
                if not spec.dependent:
                    break
                spec = workload.generate(rng, partition, catalog)
            else:
                raise ConfigError(
                    f"workload {workload.name} generates only dependent "
                    "transactions; the equivalence oracle cannot script it"
                )
            txn_id += 1
            schedule.append(ScriptedSubmission(txn_id, partition, submit_time, spec))
    schedule.sort(key=lambda item: (item.submit_time, item.txn_id))
    return schedule


def _build_txn(item: ScriptedSubmission, restarts: int = 0) -> Transaction:
    return Transaction.create(
        txn_id=item.txn_id,
        procedure=item.spec.procedure,
        args=item.spec.args,
        read_set=item.spec.read_set,
        write_set=item.spec.write_set,
        origin_partition=item.partition,
        client=None,
        submit_time=item.submit_time,
        restarts=restarts,
    )


def run_scripted(
    engine_name: str,
    config: ClusterConfig,
    workload: Workload,
    schedule: Sequence[ScriptedSubmission],
    timeout: float = 60.0,
) -> EngineRun:
    """Execute ``schedule`` under ``engine_name``; collect the outcome."""
    cluster = get_engine(engine_name)(config, workload=workload, record_history=True)
    cluster.load_workload_data()
    cluster.start()
    by_id = {item.txn_id: item for item in schedule}

    def submit(txn: Transaction, at: float) -> None:
        node = cluster.node(0, txn.origin_partition)
        cluster.sim.schedule_at(at, node.handle_message, None, ClientSubmit(txn))

    for item in schedule:
        submit(_build_txn(item), item.submit_time)
    # Scripted transactions have no client, so the oracle stands in for
    # one: a RESTART (a wait-die victim; the schedule holds no dependent
    # spec, so the deterministic engines never report one) is resubmitted
    # after the client's backoff, same id, bumped restart count.
    backoff = cluster.retry_backoff or cluster.config.epoch_duration
    deadline = cluster.sim.now + timeout
    terminal = processed = 0
    while terminal < len(schedule):
        if cluster.sim.now >= deadline:
            raise ConsistencyError(
                f"{engine_name}: only {terminal}/{len(schedule)} scripted "
                f"transactions reached a terminal outcome within {timeout}s"
            )
        cluster.sim.run(until=cluster.sim.now + _STEP)
        while processed < len(cluster.history):
            _seq, txn, status = cluster.history[processed]
            processed += 1
            if status is TxnStatus.RESTART:
                retry = _build_txn(by_id[txn.txn_id], restarts=txn.restarts + 1)
                submit(retry, cluster.sim.now + backoff)
            else:
                terminal += 1
    statuses = {
        txn.txn_id: status
        for _seq, txn, status in cluster.sorted_history()
        if status is not TxnStatus.RESTART
    }
    return EngineRun(engine_name, cluster, cluster.final_state(), statuses)


def check_identical_outcome(reference: EngineRun, other: EngineRun) -> None:
    """Both runs committed the same effects: identical statuses + state."""
    if reference.statuses != other.statuses:
        diff = [
            txn_id
            for txn_id in sorted(set(reference.statuses) | set(other.statuses))
            if reference.statuses.get(txn_id) is not other.statuses.get(txn_id)
        ]
        raise ConsistencyError(
            f"{reference.engine} vs {other.engine}: terminal statuses differ "
            f"for txn ids {diff[:5]} ({len(diff)} total)"
        )
    if reference.final_state != other.final_state:
        keys_a, keys_b = reference.final_state, other.final_state
        differing = [
            key
            for key in keys_a.keys() | keys_b.keys()
            if keys_a.get(key) != keys_b.get(key)
        ]
        raise ConsistencyError(
            f"{reference.engine} vs {other.engine}: final states differ on "
            f"{len(differing)} keys (e.g. {sorted(map(repr, differing))[:3]})"
        )


def compare_engines(
    workload: Workload,
    config: ClusterConfig,
    engines: Sequence[str] = ("core", "star", "baseline"),
    txns_per_partition: int = 30,
    horizon: float = 0.25,
    seed: int = 0,
    timeout: float = 60.0,
    schedule: Optional[Sequence[ScriptedSubmission]] = None,
) -> Dict[str, EngineRun]:
    """Run one scripted schedule under every engine and cross-check.

    Deterministic-order engines are checked pairwise-identical against
    the first of them; every engine is additionally checked
    self-serializable (:func:`repro.core.checkers.check_serializability`
    over its own history order). Returns the per-engine runs for further
    asserts.
    """
    if schedule is None:
        schedule = scripted_schedule(
            workload, config, txns_per_partition=txns_per_partition,
            horizon=horizon, seed=seed,
        )
    runs = {
        name: run_scripted(name, config, workload, schedule, timeout=timeout)
        for name in engines
    }
    deterministic = [
        runs[name] for name in engines if get_engine(name).deterministic_order
    ]
    for other in deterministic[1:]:
        check_identical_outcome(deterministic[0], other)
    for run in runs.values():
        check_serializability(run.cluster)
    return runs


__all__ = [
    "EngineRun",
    "ScriptedSubmission",
    "check_identical_outcome",
    "compare_engines",
    "run_scripted",
    "scripted_schedule",
]
