"""The experiment table: one declaration per paper figure, claim, ablation or sweep.

Each :class:`Experiment` names its table (label, title, headers,
notes), the grid of independent cells a :class:`ScaleProfile` asks for,
the module-level cell function that runs one of them, the fold from
cell outputs to rows, and the paper's *shape claims* as named
predicates over the finished table. :func:`run_experiment` sweeps any
grid through :func:`repro.bench.parallel.sweep` (so ``--jobs`` fans out
every experiment), and ``repro run`` names each claim the table fails
and exits non-zero. EXPERIMENTS.md records paper-vs-measured.

A cell is called as ``cell(*params, profile, seed)`` for each parameter
tuple of the grid; it builds a fresh cluster from the seed and returns
picklable data, so its output depends on its arguments alone.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.harness import (
    LockStatsSampler,
    SATURATION_CLIENTS,
    ScaleProfile,
    machine_sweep,
    measure,
)
from repro.bench.parallel import sweep
from repro.bench.reporting import ExperimentResult
from repro.config import ClusterConfig, CostModel, DEFAULT_CONFIG
from repro.core.checkers import verify
from repro.core.cluster import CalvinCluster
from repro.core.traffic import ClientProfile
from repro.errors import ConsistencyError
from repro.faults.plan import FaultPlan
from repro.geo.readonly import add_read_clients
from repro.obs import SpanKind, TraceRecorder, phase_means
from repro.reconfig import AutoscalePolicy, Autoscaler, ClusterAdmin
from repro.workloads.microbenchmark import Microbenchmark
from repro.workloads.tpcc import TpccWorkload
from repro.workloads.ycsb import YcsbWorkload

#: A shape claim: the paper's wording, and the predicate over the
#: finished table that holds when the shape is reproduced.
Claim = Tuple[str, Callable[[ExperimentResult], bool]]


def _rows(result: ExperimentResult, outputs: List[Any]) -> None:
    """The default fold: each cell output is one row."""
    for row in outputs:
        result.add_row(*row)


@dataclass(frozen=True)
class Experiment:
    """One reproducible experiment: its table, its grid, its claims."""

    name: str
    label: str
    title: str
    headers: Tuple[str, ...]
    grid: Callable[[ScaleProfile], Sequence[Tuple]]
    cell: Callable[..., Any]
    claims: Tuple[Claim, ...]
    notes: str = ""
    fold: Callable[[ExperimentResult, List[Any]], None] = _rows

    def failed_claims(self, result: ExperimentResult) -> List[str]:
        """The claims ``result`` does not reproduce, in declaration order."""
        failed = []
        for claim, holds in self.claims:
            try:
                reproduced = holds(result)
            except Exception as exc:  # noqa: BLE001 - a malformed table fails its claim
                failed.append(f"{claim} ({type(exc).__name__}: {exc})")
                continue
            if not reproduced:
                failed.append(claim)
        return failed


def _where(result: ExperimentResult, header: str, value: Any) -> Dict[str, Any]:
    """The first row whose ``header`` column equals ``value``."""
    return next(row for row in result.as_dicts() if row[header] == value)


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


# -- E1 / Figure 5: TPC-C New Order scalability ------------------------------------
#
# 100% New Order, 10% multi-warehouse order lines, warehouses scale with
# machines. The paper reports total throughput growing near-linearly to
# ~500 k txns/sec at 100 machines (~5 k/machine).


def _fig5_cell(machines: int, clients: int, profile: ScaleProfile, seed: int) -> Tuple:
    workload = TpccWorkload(mix={"new_order": 1.0}, remote_fraction=0.10)
    config = ClusterConfig(num_partitions=machines, seed=seed)
    report = measure(workload, config, profile, clients_per_partition=clients)
    return (
        machines,
        report.throughput,
        report.throughput / machines,
        report.latency_p99 * 1e3,
    )


def _fig5_grid(profile: ScaleProfile) -> List[Tuple]:
    # New Orders have ~40-key footprints over a finite stock/district key
    # space: past moderate concurrency, extra closed-loop clients only
    # lengthen lock queues (convoying) without adding throughput. Offer a
    # saturating-but-not-thrashing load regardless of scale profile.
    clients = min(150, profile.clients_per_partition)
    return [(machines, clients) for machines in machine_sweep(profile)]


def _fig5_no_collapse(result: ExperimentResult) -> bool:
    per_machine = result.column("per-machine txn/s")
    return len(per_machine) < 3 or per_machine[-1] > 0.5 * per_machine[1]


# -- E2 / Figure 6: microbenchmark per-machine scalability -------------------------
#
# Per-machine throughput vs cluster size at 0%, 10% and 100% multipartition,
# low contention: ~27 k/machine at 0% (flat), lower at 10%, much lower but
# still flat-ish at 100%.

_MP_CURVES = (0.0, 0.10, 1.0)


def _fig6_cell(mp_fraction: float, machines: int, profile: ScaleProfile, seed: int) -> Tuple:
    workload = Microbenchmark(mp_fraction=mp_fraction, hot_set_size=10000)
    config = ClusterConfig(num_partitions=machines, seed=seed)
    report = measure(workload, config, profile)
    return (
        machines,
        int(mp_fraction * 100),
        report.throughput / machines,
        report.throughput,
    )


def _fig6_curves(result: ExperimentResult) -> Dict[int, List[float]]:
    curves: Dict[int, List[float]] = {}
    for row in result.as_dicts():
        curves.setdefault(row["mp %"], []).append(row["per-machine txn/s"])
    return curves


# -- E3 / Figure 7: slowdown under contention, Calvin vs 2PC -----------------------
#
# 10% multipartition; the contention index (1 / hot-set size) sweeps from
# 0.0001 toward 1. Each system is normalised to its own lowest-contention
# throughput. The System R*-style system holds locks across two-phase
# commit and suffers deadlock aborts, so it degrades sooner and deeper.

CONTENTION_HOT_SETS = (10000, 1000, 100, 10, 2, 1)


def _fig7_cell(engine: str, hot_set: int, profile: ScaleProfile, seed: int) -> float:
    workload = Microbenchmark(mp_fraction=0.10, hot_set_size=hot_set)
    config = ClusterConfig(num_partitions=2, seed=seed, engine=engine)
    return measure(workload, config, profile).throughput


def _fig7_fold(result: ExperimentResult, rates: List[float]) -> None:
    calvin, baseline = rates[0::2], rates[1::2]
    calvin_reference = max(calvin[0], 1e-9)
    baseline_reference = max(baseline[0], 1e-9)
    for hot_set, calvin_rate, baseline_rate in zip(CONTENTION_HOT_SETS, calvin, baseline):
        result.add_row(
            1.0 / hot_set,
            calvin_rate,
            calvin_reference / max(calvin_rate, 1e-9),
            baseline_rate,
            baseline_reference / max(baseline_rate, 1e-9),
        )


def _fig7_moderate(result: ExperimentResult) -> Dict[str, Any]:
    """The first row at contention index 0.01 or above."""
    return next(row for row in result.as_dicts() if row["contention idx"] >= 0.01)


# -- E4 / Figure 8: throughput while checkpointing ---------------------------------
#
# The asynchronous (Zig-Zag-style) capture shows a modest dip; the naive
# stop-the-world dump (our added contrast) a full outage.

# Sized so the dump takes a visible fraction of the run.
_RECORDS_PER_PARTITION = 60000


def _fig8_cell(mode: str, profile: ScaleProfile, seed: int) -> Tuple[List, Dict]:
    duration = 1.0 if profile.name != "smoke" else 0.6
    checkpoint_at = duration * 0.35
    workload = Microbenchmark(
        mp_fraction=0.10, hot_set_size=10000,
        cold_set_size=_RECORDS_PER_PARTITION - 10000,
    )
    config = ClusterConfig(num_partitions=2, seed=seed)
    cluster = CalvinCluster(config, workload=workload, record_history=False)
    cluster.load_workload_data()
    cluster.add_clients(ClientProfile(per_partition=300))
    cluster.schedule_checkpoint(at_time=checkpoint_at, mode=mode)
    cluster.run(duration=duration, warmup=0.0)
    series = cluster.metrics.throughput.series(cluster.sim.now - 0.1, start_time=0.1)
    info = {
        "checkpoint_at": checkpoint_at,
        "records": sum(s.record_count for s in cluster.checkpoints.values()),
        "capture_seconds": max(
            (s.finished_at - s.started_at for s in cluster.checkpoints.values()),
            default=0.0,
        ),
    }
    return series, info


def _fig8_fold(result: ExperimentResult, outputs: List[Tuple[List, Dict]]) -> None:
    (zigzag, zigzag_info), (naive, naive_info) = outputs
    for (t, zigzag_rate), (_t, naive_rate) in zip(zigzag, naive):
        result.add_row(round(t, 2), zigzag_rate, naive_rate)
    result.notes = (
        f"checkpoint starts ~t={zigzag_info['checkpoint_at']:.2f}s; {result.notes}"
        f"; zigzag capture {zigzag_info['capture_seconds']*1e3:.0f}ms over "
        f"{zigzag_info['records']} records, naive outage "
        f"{naive_info['capture_seconds']*1e3:.0f}ms"
    )


# -- E5 / Section 4: disk-resident data with sequencer prefetching -----------------
#
# Sweeps the fraction of transactions touching a disk-resident record, with
# a good and a zero ("underestimated") fetch-latency estimate. Prefetching
# sustains nearly full throughput while the disk keeps up; underestimating
# stalls transactions in the scheduler while they hold locks.


def _e5_cell(fraction: float, profile: ScaleProfile, seed: int) -> Tuple:
    reports = []
    for error in (0.0, 1.0):
        workload = Microbenchmark(
            mp_fraction=0.0, archive_fraction=fraction, archive_set_size=50000
        )
        config = ClusterConfig(
            num_partitions=2,
            seed=seed,
            disk_enabled=fraction > 0,
            disk_estimate_error=error,
        )
        reports.append(measure(workload, config, profile))
    good, under = reports
    return (
        fraction * 100,
        good.throughput,
        under.throughput,
        good.latency_p99 * 1e3,
        under.latency_p99 * 1e3,
    )


# -- E6: Paxos WAN replication costs latency, not throughput -----------------------
#
# Calvin replicates *inputs* before execution and Paxos instances pipeline,
# so throughput should hold while commit latency absorbs the WAN round trip.


def _e6_cell(mode: str, replicas: int, profile: ScaleProfile, seed: int) -> Tuple:
    workload = Microbenchmark(mp_fraction=0.10, hot_set_size=10000)
    config = ClusterConfig(
        num_partitions=2, num_replicas=replicas, replication_mode=mode, seed=seed
    )
    # Closed-loop clients: under Paxos each request is outstanding for ~1
    # WAN RTT instead of ~1 epoch, so saturating the same worker pool needs
    # proportionally more clients, and the measurement must start after
    # the leader-election transient.
    clients = profile.clients_per_partition
    run_profile = profile
    if mode == "paxos":
        # ~12x more outstanding requests cover the ~12x latency, but cap
        # the base so huge profiles don't flood the epoch queues (offered
        # load beyond saturation only adds queueing delay).
        clients = min(clients, 150) * 12
        run_profile = ScaleProfile(
            profile.name, warmup=max(profile.warmup, 0.5),
            duration=profile.duration,
            clients_per_partition=clients,
            max_machines=profile.max_machines,
        )
    report = measure(workload, config, run_profile, clients_per_partition=clients)
    return (
        mode,
        replicas,
        report.throughput,
        report.latency_p50 * 1e3,
        report.latency_p99 * 1e3,
    )


# -- E7: determinism end to end ----------------------------------------------------
#
# A contended multipartition run with a mid-run Zig-Zag checkpoint; then
# (a) every replica holds identical state, (b) the checkpoint plus the
# input-log suffix rebuilds the live state exactly, and (c) replaying the
# *full* log from the initial load is a second independent reconstruction.


def _e7_cell(profile: ScaleProfile, seed: int) -> List[Tuple]:
    txns_per_client = 40 if profile.name != "smoke" else 15
    workload = Microbenchmark(mp_fraction=0.3, hot_set_size=50)
    config = ClusterConfig(
        num_partitions=3, num_replicas=2, replication_mode="async", seed=seed
    )
    cluster = CalvinCluster(config, workload=workload, record_history=False)
    cluster.load_workload_data()
    cluster.add_clients(ClientProfile(per_partition=10, max_txns=txns_per_client))
    done = cluster.schedule_checkpoint(at_time=0.12, mode="zigzag")
    cluster.run(duration=0.5)
    cluster.quiesce()
    verify(cluster)
    if not done.triggered:
        raise ConsistencyError("checkpoint did not complete during the run")

    live_state = cluster.final_state()
    epoch = cluster.checkpoints[0].epoch
    checkpoint_image = {}
    for snapshot in cluster.checkpoints.values():
        checkpoint_image.update(snapshot.data)
    suffix = [entry for entry in cluster.merged_log() if entry.epoch >= epoch]
    recovered = CalvinCluster.replay(
        config, cluster.registry, cluster.catalog.partitioner,
        checkpoint_image, suffix, start_epoch=epoch,
    )
    recovery_ok = recovered.final_state() == live_state

    full = CalvinCluster.replay(
        config, cluster.registry, cluster.catalog.partitioner,
        cluster.initial_data, cluster.merged_log(),
    )
    full_replay_ok = full.final_state() == live_state
    if not (recovery_ok and full_replay_ok):
        raise ConsistencyError("recovery reconstruction diverged from live state")
    return [
        ("replica consistency", "PASS", f"{config.num_replicas} replicas identical"),
        (
            "checkpoint recovery",
            "PASS",
            f"epoch {epoch} image + {sum(len(e.txns) for e in suffix)} replayed txns",
        ),
        (
            "full log replay",
            "PASS",
            f"{sum(len(e.txns) for e in cluster.merged_log())} txns from initial load",
        ),
    ]


# -- E8: no single point of failure ------------------------------------------------
#
# A 3-replica Paxos cluster loses whole replicas mid-run. Batches need only
# a majority of acceptors, so losing one replica leaves throughput intact;
# losing two stalls agreement -- Calvin chooses safety over availability.

_CRASH_AT = 0.7


def _e8_cell(crash_replicas: Tuple[int, ...], profile: ScaleProfile, seed: int) -> List:
    duration = 1.4 if profile.name != "smoke" else 1.1
    workload = Microbenchmark(mp_fraction=0.10, hot_set_size=10000)
    config = ClusterConfig(
        num_partitions=2, num_replicas=3, replication_mode="paxos", seed=seed
    )
    # Permanent whole-replica crashes (no restart: ``until`` unset).
    plan = FaultPlan(name=f"e8-crash-{'-'.join(map(str, crash_replicas))}")
    for replica in crash_replicas:
        plan.crash(at=_CRASH_AT, replica=replica)
    cluster = CalvinCluster(
        config, workload=workload, record_history=False, fault_plan=plan
    )
    cluster.load_workload_data()
    cluster.add_clients(ClientProfile(per_partition=1200))  # saturate through the WAN commit latency
    cluster.run(duration=duration, warmup=0.0)
    # Skip the leader-election warmup in the reported series.
    return cluster.metrics.throughput.series(cluster.sim.now - 0.05, start_time=0.4)


def _e8_fold(result: ExperimentResult, outputs: List[List]) -> None:
    minority, majority = outputs
    for (t, minority_rate), (_t, majority_rate) in zip(minority, majority):
        result.add_row(round(t, 2), minority_rate, majority_rate)


def _e8_windows(result: ExperimentResult) -> Tuple[float, List[float], List[float]]:
    """Pre-crash minority mean, then both post-crash series. Commits
    arrive in WAN-round bursts, so claims compare window averages."""
    rows = result.as_dicts()
    before = [row["minority crash"] for row in rows if row["t (s)"] < 0.65]
    after = [row for row in rows if row["t (s)"] > 0.8]
    return (
        _mean(before),
        [row["minority crash"] for row in after],
        [row["majority crash"] for row in after],
    )


# -- Ablation: epoch duration (DESIGN.md decision 4) -------------------------------
#
# Shorter epochs cut the sequencing latency floor but multiply per-epoch
# overheads (sub-batch fan-out is O(partitions²) messages per epoch).


def _epoch_cell(epoch: float, profile: ScaleProfile, seed: int) -> Tuple:
    workload = Microbenchmark(mp_fraction=0.10, hot_set_size=10000)
    config = ClusterConfig(num_partitions=4, seed=seed, epoch_duration=epoch)
    report = measure(workload, config, profile)
    return (
        epoch * 1e3,
        report.throughput,
        report.latency_p50 * 1e3,
        report.latency_p99 * 1e3,
    )


# -- Ablation: worker pool size ----------------------------------------------------
#
# Throughput scales with workers while they bind, then flattens when the
# single-threaded lock-manager admission takes over -- the ceiling the
# paper's one-lock-manager design implies.


def _workers_cell(workers: int, profile: ScaleProfile, seed: int) -> Tuple:
    workload = Microbenchmark(mp_fraction=0.10, hot_set_size=10000)
    config = ClusterConfig(num_partitions=2, seed=seed, workers_per_node=workers)
    report = measure(workload, config, profile)
    return (workers, report.throughput / 2, report.latency_p50 * 1e3)


# -- Ablation: Zipfian access skew (YCSB-style) ------------------------------------
#
# Reads share locks, so read-heavy skewed traffic degrades far less than
# update-heavy traffic -- the shared/exclusive behaviour the paper's
# exclusive-only hot-set microbenchmark cannot show.

THETAS = (0.0, 0.6, 0.9, 0.99, 1.2)


def _skew_cell(theta: float, read_fraction: float, profile: ScaleProfile, seed: int) -> float:
    workload = YcsbWorkload(
        records_per_partition=5000,
        theta=theta,
        read_fraction=read_fraction,
        mp_fraction=0.1,
    )
    config = ClusterConfig(num_partitions=2, seed=seed)
    return measure(workload, config, profile).throughput


def _skew_fold(result: ExperimentResult, rates: List[float]) -> None:
    for index, theta in enumerate(THETAS):
        result.add_row(theta, rates[2 * index], rates[2 * index + 1])


def _skew_drop(result: ExperimentResult, header: str) -> float:
    rates = result.column(header)
    return rates[-1] / rates[0]


# -- Ablation: lock-manager shards (DESIGN.md decision 2) --------------------------
#
# One lock-manager thread serializes every lock request; sharding the lock
# table by key keeps per-key determinism and lifts that ceiling. An
# enlarged worker pool and a 4x lock_request_cpu make admission the bound.


def _lockmanager_cell(shards: int, profile: ScaleProfile, seed: int) -> Tuple:
    config = ClusterConfig(
        num_partitions=1,
        seed=seed,
        workers_per_node=32,
        lock_manager_shards=shards,
        costs=CostModel(lock_request_cpu=6e-6),
    )
    sampler = LockStatsSampler()
    report = measure(
        Microbenchmark(mp_fraction=0.0, hot_set_size=10000), config, profile,
        clients_per_partition=profile.clients_per_partition * 2,
        on_cluster=sampler.attach,
    )
    return (
        shards,
        report.throughput,
        report.latency_p50 * 1e3,
        round(sampler.mean_active(), 1),
        sampler.peak_queued(),
    )


# -- Latency decomposition vs multipartition fraction ------------------------------
#
# The floor comes from epoch batching, not coordination; a multipartition
# transaction pays one remote-read round trip, never a commit protocol.
# Phase columns are mean span durations from the trace recorder -- the
# data ``repro trace`` renders interactively.


def _latency_cell(mp_fraction: float, profile: ScaleProfile, seed: int) -> Tuple:
    workload = Microbenchmark(mp_fraction=mp_fraction, hot_set_size=10000)
    config = ClusterConfig(num_partitions=2, seed=seed)
    tracer = TraceRecorder()
    report = measure(
        workload, config, profile,
        clients_per_partition=max(20, profile.clients_per_partition // 8),
        tracer=tracer,
    )
    means = phase_means(tracer.spans, since=profile.warmup)
    return (
        int(mp_fraction * 100),
        report.latency_p50 * 1e3,
        report.latency_p99 * 1e3,
        means.get(SpanKind.SEQUENCE, 0.0) * 1e3,
        means.get(SpanKind.LOCK_WAIT, 0.0) * 1e3,
        means.get(SpanKind.EXECUTE, 0.0) * 1e3,
        means.get(SpanKind.REMOTE_READ_WAIT, 0.0) * 1e3,
    )


# -- Ablation: multipartition fan-out ----------------------------------------------
#
# Each extra participant adds message handling and locks, but the protocol
# needs one remote-read exchange at any fan-out (no commit round), so
# throughput degrades with the work, not off a coordination cliff.


def _fanout_cell(fanout: int, machines: int, profile: ScaleProfile, seed: int) -> Tuple:
    workload = Microbenchmark(
        mp_fraction=1.0, hot_set_size=10000, partitions_per_txn=fanout
    )
    config = ClusterConfig(num_partitions=machines, seed=seed)
    report = measure(workload, config, profile)
    return (
        fanout,
        report.throughput,
        report.throughput / machines,
        report.latency_p50 * 1e3,
    )


def _fanout_grid(profile: ScaleProfile) -> List[Tuple]:
    machines = min(6, profile.max_machines)
    return [(fanout, machines) for fanout in (2, 3, 4, 6) if fanout <= machines]


# -- OLLP restarts vs dependency churn (Section 3.2.1) -----------------------------
#
# Delivery's footprint depends on each district's oldest-undelivered-order
# queue, which every New Order mutates. Delivery is held at 5% while the
# New Order share sweeps against queue-neutral Payment, so the restart
# ratio isolates reconnaissance staleness, not delivery-vs-delivery
# contention.

_DELIVERY_SHARE = 0.05


def _ollp_cell(share: float, profile: ScaleProfile, seed: int) -> Tuple:
    mix = {
        "delivery": _DELIVERY_SHARE,
        "payment": max(0.0, 1.0 - _DELIVERY_SHARE - share),
    }
    if share > 0:
        mix["new_order"] = share
    workload = TpccWorkload(
        mix=mix,
        remote_fraction=0.05,
        by_name_fraction=0.0,  # keep Payment fully independent
    )
    config = ClusterConfig(num_partitions=2, seed=seed)
    cluster = CalvinCluster(config, workload=workload, record_history=False)
    cluster.load_workload_data()
    cluster.add_clients(ClientProfile(per_partition=min(40, profile.clients_per_partition)))
    # Warm up, snapshot cumulative counters, then measure deltas so
    # warm-up restarts don't pollute the ratio.
    cluster.run(duration=profile.warmup)
    before_restarts = cluster.metrics.restarts
    before_deliveries = cluster.metrics.per_procedure.get("delivery", 0)
    report = cluster.run(duration=profile.duration)
    window = report.duration
    deliveries = report.per_procedure.get("delivery", 0) - before_deliveries
    restarts = report.restarts - before_restarts
    return (
        int(share * 100),
        report.throughput,
        deliveries / window,
        restarts / window,
        restarts / max(1, restarts + deliveries),
    )


# -- Saturation: the open-loop admission knee --------------------------------------
#
# Open-loop clients offer a ladder of loads, as fractions of the admission
# capacity: committed throughput climbs with offered load until the
# per-epoch admission budget saturates, then plateaus while p99 and the
# intake queue grow -- the half of the paper's methodology closed-loop
# clients cannot produce.

# Admission budget per sequencing epoch: 2,000 txn/s per node at the 10 ms
# epoch, far below what execution absorbs, so the knee is the admission
# front-end's (its position is exact), not scheduler contention's.
EPOCH_BUDGET = 20
_SATURATION_PARTITIONS = 2
_SATURATION_CAPACITY = EPOCH_BUDGET / DEFAULT_CONFIG.epoch_duration * _SATURATION_PARTITIONS
_OPEN_CLIENTS = 8  # per partition

# Offered load as fractions of aggregate admission capacity.
_FRACTIONS = {
    "smoke": (0.5, 1.0, 1.75),
    "quick": (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0),
    "full": (0.25, 0.5, 0.75, 0.9, 1.0, 1.1, 1.25, 1.5, 2.0, 3.0),
}


def _admission_config(partitions: int, seed: int, policy: str, **fields) -> ClusterConfig:
    """A cluster whose sequencers admit ``EPOCH_BUDGET`` txns per epoch."""
    return ClusterConfig(
        num_partitions=partitions,
        seed=seed,
        admission_policy=policy,
        admission_epoch_budget=EPOCH_BUDGET,
        admission_queue_capacity=2 * EPOCH_BUDGET,
        **fields,
    )


def _saturation_cell(
    fraction: float,
    profile: ScaleProfile,
    seed: int,
    policy: str = "backpressure",
) -> Tuple:
    config = _admission_config(_SATURATION_PARTITIONS, seed, policy)
    node_capacity = EPOCH_BUDGET / config.epoch_duration
    workload = Microbenchmark(mp_fraction=0.1, hot_set_size=10_000, cold_set_size=10_000)
    cluster = CalvinCluster(config, workload=workload, record_history=False)
    cluster.load_workload_data()
    cluster.add_clients(ClientProfile(
        per_partition=_OPEN_CLIENTS,
        mode="open",
        rate=fraction * node_capacity / _OPEN_CLIENTS,
    ))
    cluster.run(duration=profile.warmup)
    # The warm-up run opened a window at t=0: drop its latency samples.
    cluster.metrics.latency.reset()
    before = cluster.admission_stats()
    report = cluster.run(duration=profile.duration)
    after = cluster.admission_stats()
    rejected = sum(after[key] - before[key] for key in ("shed", "dropped", "backpressured"))
    latency = cluster.metrics.latency
    return (
        fraction,
        (after["offered"] - before["offered"]) / report.duration,
        (after["admitted"] - before["admitted"]) / report.duration,
        report.throughput,
        latency.percentile(50) * 1e3,
        latency.percentile(95) * 1e3,
        latency.percentile(99) * 1e3,
        after["peak_queue_depth"],
        rejected,
    )


# -- Engine shoot-out: Calvin vs 2PL+2PC vs STAR -----------------------------------
#
# One saturated window per (contention, multipartition %) cell per engine,
# all on the paper's microbenchmark through the repro.engines seam. STAR's
# trade (PAPERS.md): at low multipartition fractions it skips Calvin's
# remote-read fan-out by running the rare distributed transactions on the
# master's full-replica view; as that work dominates, everything funnels
# through the one master and STAR sinks below the single-node reference
# (a 1-partition core run of the same per-partition workload).

_ENGINES = ("core", "baseline", "star")
# (label, per-partition hot set size); the contention index is 1/size.
_SHOOTOUT_CONTENTION = (("low", 10000), ("high", 100))
_SHOOTOUT_MP = (0.0, 0.05, 0.1, 0.3, 0.5, 1.0)
_SHOOTOUT_PARTITIONS = 4


def _shootout_cell(
    engine: str, hot_set_size: int, mp_fraction: float, partitions: int,
    profile: ScaleProfile, seed: int,
) -> float:
    # The phase-switch trade only shows at depth: under-saturated clients
    # turn STAR's multipartition batching latency into lost throughput,
    # so scale sets the window lengths only, never the client count.
    workload = Microbenchmark(
        hot_set_size=hot_set_size, cold_set_size=10000, mp_fraction=mp_fraction
    )
    config = ClusterConfig(num_partitions=partitions, seed=seed, engine=engine)
    return measure(workload, config, profile, clients_per_partition=SATURATION_CLIENTS).throughput


def _shootout_grid(profile: ScaleProfile) -> List[Tuple]:
    # Per contention level, the single-node reference (multipartition
    # draws collapse on one partition, so one run covers every mp point),
    # then one cell per (mp fraction, engine).
    cells: List[Tuple] = []
    for _label, hot_set_size in _SHOOTOUT_CONTENTION:
        cells.append(("core", hot_set_size, 0.0, 1))
        cells += [
            (engine, hot_set_size, mp_fraction, _SHOOTOUT_PARTITIONS)
            for mp_fraction in _SHOOTOUT_MP
            for engine in _ENGINES
        ]
    return cells


def _shootout_fold(result: ExperimentResult, rates: List[float]) -> None:
    rates = iter(rates)
    for label, hot_set_size in _SHOOTOUT_CONTENTION:
        reference = next(rates)
        for mp_fraction in _SHOOTOUT_MP:
            core, baseline, star = (next(rates) for _engine in _ENGINES)
            result.add_row(
                label, hot_set_size, round(mp_fraction * 100, 1),
                round(core, 1), round(baseline, 1), round(star, 1), round(reference, 1),
                round(star / core, 2) if core else 0.0,
            )


def _shootout_rows(result: ExperimentResult, contention: str, low: float, high: float):
    """The rows at ``contention`` with ``low < mp_% <= high``."""
    return [
        row for row in result.as_dicts()
        if row["contention"] == contention and low < row["mp_%"] <= high
    ]


# -- Geo: WAN contention collapse on a routed chain --------------------------------
#
# A chain of datacenters replicates the input through Paxos while
# multipartition commits cross the same links. As per-link bandwidth
# shrinks, the shared channels congest and throughput collapses.

# Per-link WAN bandwidth ladder, bytes/second: the low rungs are where
# per-hop transfer time rivals propagation for KB-scale batches.
_BANDWIDTHS = {
    "smoke": (float("inf"), 1.25e5),
    "quick": (float("inf"), 1.25e6, 2.5e5, 1.25e5),
    "full": (float("inf"), 1.25e6, 5e5, 2.5e5, 1.25e5, 6.25e4),
}
_GEO_PARTITIONS = 2


def _max_link_utilization(cluster: CalvinCluster) -> float:
    network = cluster.network
    now = cluster.sim.now
    if network.geo is None or now <= 0:
        return 0.0
    return max(
        (network._channel_stat((link.src, link.dst), "busy_time") / now
         for link in network.geo.links()),
        default=0.0,
    )


def _geo_contention_cell(bandwidth: float, profile: ScaleProfile, seed: int) -> Tuple:
    workload = Microbenchmark(mp_fraction=0.3, hot_set_size=10_000, cold_set_size=10_000)
    config = ClusterConfig(
        num_partitions=_GEO_PARTITIONS,
        num_replicas=3,
        replication_mode="paxos",
        topology="chain",
        wan_latency=0.01,
        wan_bandwidth=bandwidth,
        seed=seed,
    )
    cluster = CalvinCluster(config, workload=workload, record_history=False)
    cluster.load_workload_data()
    cluster.add_clients(ClientProfile(per_partition=3))
    report = cluster.run(profile.duration, warmup=profile.warmup)
    latency = cluster.metrics.latency
    return (
        bandwidth * 8 / 1e6,  # megabits/second
        report.throughput,
        latency.percentile(50) * 1e3,
        latency.percentile(99) * 1e3,
        _max_link_utilization(cluster),
        cluster.network.wan_bytes / 1e6,
    )


# -- Geo: replica-local reads vs freshness -----------------------------------------
#
# Read-only clients spread across datacenters read either at the input
# site (``input``) or at their nearest hosting replica (``local``), with
# closed-loop writers at the input site. Any replica's committed prefix
# is a consistent snapshot (the paper's Section 3), so reads need no
# sequencing; the staleness columns show what locality costs in freshness.

_REPLICA_LADDER = {
    "smoke": (2, 3),
    "quick": (2, 3, 4),
    "full": (2, 3, 4, 5),
}
_READ_CLIENTS = 12


def _geo_reads_cell(replicas: int, mode: str, profile: ScaleProfile, seed: int) -> Tuple:
    workload = Microbenchmark(mp_fraction=0.1, hot_set_size=1_000, cold_set_size=1_000)
    config = ClusterConfig(
        num_partitions=_GEO_PARTITIONS,
        num_replicas=replicas,
        replication_mode="paxos",
        topology="ring",
        wan_latency=0.01,
        seed=seed,
    )
    cluster = CalvinCluster(config, workload=workload, record_history=False)
    cluster.load_workload_data()
    cluster.add_clients(ClientProfile(per_partition=4))
    readers = add_read_clients(
        cluster, _READ_CLIENTS, max_txns=None, replica_local=(mode == "local")
    )
    cluster.run(duration=profile.warmup)
    # Fresh measurement window for the read-side instruments.
    latency = cluster.metrics_registry.histogram("geo.ro.latency_ms")
    staleness = cluster.metrics_registry.histogram("geo.ro.staleness_epochs")
    latency.reset()
    staleness.reset()
    reads_before = sum(client.completed for client in readers)
    remote_before = sum(client.local_replica_hits for client in readers)
    report = cluster.run(duration=profile.duration)
    reads = sum(client.completed for client in readers) - reads_before
    remote = sum(client.local_replica_hits for client in readers) - remote_before
    return (
        replicas,
        mode,
        reads / report.duration,
        latency.percentile(50),
        staleness.percentile(50),
        staleness.percentile(99),
        report.throughput,
        (remote / reads) if reads else 0.0,
    )


def _geo_reads_qps(result: ExperimentResult, mode: str) -> List[float]:
    return [row["ro_qps"] for row in result.as_dicts() if row["mode"] == mode]


# -- Elastic reconfiguration under open-loop overload ------------------------------
#
# A half-active cluster (spare partitions provisioned but dormant) under
# open-loop overload: split a hot partition onto a spare, retire an
# origin, or let the autoscaler act on admission saturation signals. Each
# scenario's digest column hashes (input log, final state, control-plane
# events), so any routing or migration nondeterminism changes it.

_ELASTIC_PARTITIONS = 4
_ELASTIC_ACTIVE = 2
_ELASTIC_CLIENTS = 4  # per partition
# Offered load as a fraction of one origin's admission capacity: past the
# knee, so queues build and the autoscaler sees real saturation.
_OVERLOAD = 1.3
SCENARIOS = ("static", "split", "resize", "autoscale")


def shape_digest(cluster) -> str:
    """SHA-256 over (input log, final state, control-plane events)."""
    digest = hashlib.sha256()
    for entry in cluster.merged_log():
        digest.update(repr(
            (entry.epoch, entry.origin_partition, tuple(txn.txn_id for txn in entry.txns))
        ).encode())
    state = cluster.final_state()
    for key in sorted(state, key=repr):
        digest.update(repr((key, state[key])).encode())
    admin = getattr(cluster, "reconfig_admin", None)
    if admin is not None:
        for event in admin.events:
            digest.update(repr(event).encode())
    return digest.hexdigest()


def _elastic_cell(scenario: str, profile: ScaleProfile, seed: int) -> Tuple:
    config = _admission_config(
        _ELASTIC_PARTITIONS, seed, "backpressure", active_partitions=_ELASTIC_ACTIVE
    )
    workload = Microbenchmark(mp_fraction=0.1, hot_set_size=200, cold_set_size=200)
    cluster = CalvinCluster(config, workload=workload, record_history=False)
    cluster.load_workload_data()
    admin = ClusterAdmin(cluster)

    total = profile.warmup + profile.duration
    rate = _OVERLOAD * (EPOCH_BUDGET / config.epoch_duration) / _ELASTIC_CLIENTS
    cluster.add_clients(ClientProfile(
        per_partition=_ELASTIC_CLIENTS, mode="open", rate=rate,
        max_txns=max(1, int(rate * total)),
    ))

    sim = cluster.sim
    if scenario in ("split", "resize"):
        sim.schedule_at(profile.warmup, admin.split, 0, 0.5)
    if scenario == "resize":
        sim.schedule_at(profile.warmup + profile.duration / 2, admin.remove_node, 1)
    if scenario == "autoscale":
        Autoscaler(admin, AutoscalePolicy(
            interval=4 * config.epoch_duration,
            scale_up_queue_depth=EPOCH_BUDGET // 2,
            cooldown=profile.duration / 2,
            min_origins=_ELASTIC_ACTIVE,
        )).start()

    report = cluster.run(duration=profile.duration, warmup=profile.warmup)
    cluster.quiesce()
    latency = cluster.metrics.latency
    return (
        scenario,
        report.committed,
        report.throughput,
        latency.percentile(50) * 1e3,
        latency.percentile(99) * 1e3,
        admin.keys_moved,
        ",".join(str(origin) for origin in admin.current_origins()),
        shape_digest(cluster)[:16],
    )


# -- the table ---------------------------------------------------------------------

_TABLE = (
    Experiment(
        name="fig5",
        label="Fig5 (E1)",
        title="TPC-C New Order scalability (10% multi-warehouse)",
        headers=("machines", "total txn/s", "per-machine txn/s", "p99 ms"),
        notes="paper: near-linear total scaling, ~5k New Orders/s/machine",
        grid=_fig5_grid,
        cell=_fig5_cell,
        claims=(
            ("total throughput grows with machines",
             lambda r: r.column("total txn/s") == sorted(r.column("total txn/s"))),
            ("near-linear total scaling: the largest cluster out-runs the smallest",
             lambda r: r.column("total txn/s")[-1] > r.column("total txn/s")[0]),
            ("per-machine throughput in the paper's magnitude (> 1 k/machine)",
             lambda r: all(rate > 1000 for rate in r.column("per-machine txn/s"))),
            ("per-machine throughput does not collapse (largest > 0.5x 2 machines)",
             _fig5_no_collapse),
        ),
    ),
    Experiment(
        name="fig6",
        label="Fig6 (E2)",
        title="Microbenchmark per-machine throughput vs machines",
        headers=("machines", "mp %", "per-machine txn/s", "total txn/s"),
        notes="paper: ~27k/machine at 0% mp; large drop at 100% mp; near-flat scaling",
        grid=lambda profile: [
            (mp_fraction, machines)
            for mp_fraction in _MP_CURVES
            for machines in machine_sweep(profile, targets=(2, 4, 8, 16))
        ],
        cell=_fig6_cell,
        claims=(
            ("0% multipartition out-runs 10% at every size",
             lambda r: min(_fig6_curves(r)[0]) > max(_fig6_curves(r)[10])),
            ("10% multipartition out-runs 100% at every size",
             lambda r: min(_fig6_curves(r)[10]) > max(_fig6_curves(r)[100])),
            ("each curve is near-flat as machines are added (largest > 0.6x smallest)",
             lambda r: all(rates[-1] > 0.6 * rates[0] for rates in _fig6_curves(r).values())),
        ),
    ),
    Experiment(
        name="fig7",
        label="Fig7 (E3)",
        title="Slowdown vs contention index (10% multipartition)",
        headers=(
            "contention idx",
            "calvin txn/s",
            "calvin slowdown",
            "2pc txn/s",
            "2pc slowdown",
        ),
        notes="slowdown = system's low-contention throughput / its throughput here; "
        "paper: 2PC system collapses orders of magnitude sooner than Calvin",
        grid=lambda profile: [
            (engine, hot_set)
            for hot_set in CONTENTION_HOT_SETS
            for engine in ("core", "baseline")
        ],
        cell=_fig7_cell,
        fold=_fig7_fold,
        claims=(
            ("Calvin slows down as contention rises",
             lambda r: r.column("calvin slowdown")[-1] > r.column("calvin slowdown")[0]),
            ("2PC slows down as contention rises",
             lambda r: r.column("2pc slowdown")[-1] > r.column("2pc slowdown")[0]),
            ("2PC slowdown exceeds 3x Calvin's at contention 1.0",
             lambda r: r.column("2pc slowdown")[-1] > 3 * r.column("calvin slowdown")[-1]),
            ("Calvin loses little at contention 0.01 (slowdown < 1.5)",
             lambda r: _fig7_moderate(r)["calvin slowdown"] < 1.5),
            ("2PC already hurts more than Calvin at contention 0.01",
             lambda r: _fig7_moderate(r)["2pc slowdown"] > _fig7_moderate(r)["calvin slowdown"]),
        ),
    ),
    Experiment(
        name="fig8",
        label="Fig8 (E4)",
        title="Throughput over time while checkpointing (txn/s, cluster)",
        headers=("t (s)", "zigzag txn/s", "naive txn/s"),
        notes="paper: async scheme shows a modest dip, no outage",
        grid=lambda profile: [("zigzag",), ("naive",)],
        cell=_fig8_cell,
        fold=_fig8_fold,
        claims=(
            ("the zigzag checkpoint never stops the system (every bucket > 0.55x steady)",
             lambda r: min(r.column("zigzag txn/s")) > 0.55 * max(r.column("zigzag txn/s"))),
            ("the naive checkpoint stops it (a bucket < 0.25x steady)",
             lambda r: min(r.column("naive txn/s")) < 0.25 * max(r.column("zigzag txn/s"))),
            ("zigzag fully recovers by the end (> 0.8x steady)",
             lambda r: r.column("zigzag txn/s")[-1] > 0.8 * max(r.column("zigzag txn/s"))),
            ("naive fully recovers by the end (> 0.8x steady)",
             lambda r: r.column("naive txn/s")[-1] > 0.8 * max(r.column("zigzag txn/s"))),
            ("both checkpoints complete and capture the store (notes count its records)",
             lambda r: "records" in r.notes),
        ),
    ),
    Experiment(
        name="e5-disk",
        label="E5 (Section 4)",
        title="Disk-resident transactions: prefetching and estimate error",
        headers=(
            "disk txn %",
            "txn/s (good estimate)",
            "txn/s (underestimated)",
            "p99 ms (good)",
            "p99 ms (under)",
        ),
        notes="disk device: 8-way, ~10ms access; 'underestimated' = sequencer "
        "predicts 0ms, so transactions stall holding locks",
        grid=lambda profile: [(fraction,) for fraction in (0.0, 0.01, 0.02, 0.05, 0.10)],
        cell=_e5_cell,
        claims=(
            ("1% disk-resident transactions cost almost nothing (> 0.9x memory-only)",
             lambda r: _where(r, "disk txn %", 1.0)["txn/s (good estimate)"]
             > 0.9 * r.column("txn/s (good estimate)")[0]),
            ("higher disk fractions lower throughput (largest < memory-only)",
             lambda r: r.column("txn/s (good estimate)")[-1]
             < r.column("txn/s (good estimate)")[0]),
            ("throughput stays positive at every disk fraction (no deadlock)",
             lambda r: all(rate > 0 for rate in r.column("txn/s (good estimate)"))),
        ),
    ),
    Experiment(
        name="e6-replication",
        label="E6 (replication)",
        title="Replication mode vs throughput and latency (WAN ~50ms one-way)",
        headers=("mode", "replicas", "total txn/s", "p50 ms", "p99 ms"),
        notes="paper claim: Paxos-based strong consistency at no throughput cost; "
        "latency grows by ~1 WAN round trip",
        grid=lambda profile: [("none", 1), ("async", 3), ("paxos", 3)],
        cell=_e6_cell,
        claims=(
            ("async replication keeps throughput (> 0.9x unreplicated)",
             lambda r: _where(r, "mode", "async")["total txn/s"]
             > 0.9 * _where(r, "mode", "none")["total txn/s"]),
            ("async replication keeps latency (p50 < 1.3x unreplicated)",
             lambda r: _where(r, "mode", "async")["p50 ms"]
             < _where(r, "mode", "none")["p50 ms"] * 1.3),
            ("Paxos keeps throughput (> 0.8x unreplicated)",
             lambda r: _where(r, "mode", "paxos")["total txn/s"]
             > 0.8 * _where(r, "mode", "none")["total txn/s"]),
            ("Paxos p50 absorbs a WAN round trip (> unreplicated + 80 ms)",
             lambda r: _where(r, "mode", "paxos")["p50 ms"]
             > _where(r, "mode", "none")["p50 ms"] + 80),
            ("Paxos p50 adds no more than ~2 round trips (< unreplicated + 250 ms)",
             lambda r: _where(r, "mode", "paxos")["p50 ms"]
             < _where(r, "mode", "none")["p50 ms"] + 250),
        ),
    ),
    Experiment(
        name="e7-recovery",
        label="E7 (recovery)",
        title="Determinism: replica consistency, checkpoint + log replay",
        headers=("check", "result", "detail"),
        grid=lambda profile: [()],
        cell=_e7_cell,
        fold=lambda result, outputs: _rows(result, outputs[0]),
        claims=(
            ("replica consistency, checkpoint recovery and full log replay all PASS",
             lambda r: {row["check"]: row["result"] for row in r.as_dicts()} == {
                 "replica consistency": "PASS",
                 "checkpoint recovery": "PASS",
                 "full log replay": "PASS",
             }),
        ),
    ),
    Experiment(
        name="e8-failover",
        label="E8 (failover)",
        title="Throughput across a whole-replica crash (Paxos x3, txn/s)",
        headers=("t (s)", "minority crash", "majority crash"),
        notes=f"one replica (of 3) crashes at t={_CRASH_AT}s in col 2; two crash in "
        "col 3 — agreement needs a majority, so the system stalls rather than "
        "diverge",
        grid=lambda profile: [((1,),), ((1, 2),)],
        cell=_e8_cell,
        fold=_e8_fold,
        claims=(
            ("a minority crash keeps average throughput (> 0.75x pre-crash)",
             lambda r: _mean(_e8_windows(r)[1]) > 0.75 * _e8_windows(r)[0]),
            ("a majority crash stalls agreement by the last bucket (< 0.1x pre-crash)",
             lambda r: _e8_windows(r)[2][-1] < 0.1 * _e8_windows(r)[0]),
            ("a majority crash stalls agreement on average (< 0.2x pre-crash)",
             lambda r: _mean(_e8_windows(r)[2]) < 0.2 * _e8_windows(r)[0]),
        ),
    ),
    Experiment(
        name="ablation-epoch",
        label="Ablation (epoch)",
        title="Epoch duration: throughput vs latency",
        headers=("epoch ms", "total txn/s", "p50 ms", "p99 ms"),
        notes="the paper fixes 10ms; latency floor tracks epoch length",
        grid=lambda profile: [(epoch,) for epoch in (0.002, 0.005, 0.010, 0.020, 0.050)],
        cell=_epoch_cell,
        claims=(
            # At heavy load queueing adds a constant, hence the slack on
            # near-equal neighbours.
            ("p50 latency tracks the epoch length (each step > 0.9x the previous)",
             lambda r: all(later > earlier * 0.9
                           for earlier, later in zip(r.column("p50 ms"), r.column("p50 ms")[1:]))),
            ("the longest epoch's p50 exceeds 0.8x its length",
             lambda r: r.column("p50 ms")[-1] > r.column("epoch ms")[-1] * 0.8),
            ("50 ms epochs starve closed-loop clients (below 10 ms throughput)",
             lambda r: _where(r, "epoch ms", 50.0)["total txn/s"]
             < _where(r, "epoch ms", 10.0)["total txn/s"]),
        ),
    ),
    Experiment(
        name="ablation-workers",
        label="Ablation (workers)",
        title="Worker contexts per node vs per-machine throughput",
        headers=("workers", "per-machine txn/s", "p50 ms"),
        notes="flattens when the single lock-manager thread becomes the bound",
        grid=lambda profile: [(workers,) for workers in (2, 4, 8, 16, 32)],
        cell=_workers_cell,
        claims=(
            ("more workers help (4 out-run 2)",
             lambda r: r.column("per-machine txn/s")[1] > r.column("per-machine txn/s")[0]),
            ("the lock-manager thread caps throughput (32 workers < 1.5x 16)",
             lambda r: _where(r, "workers", 32)["per-machine txn/s"]
             < 1.5 * _where(r, "workers", 16)["per-machine txn/s"]),
        ),
    ),
    Experiment(
        name="ablation-skew",
        label="Ablation (skew)",
        title="Zipfian skew vs throughput (YCSB-style, 2 machines)",
        headers=("theta", "read-heavy txn/s", "update-heavy txn/s"),
        notes="read-heavy = 95% reads (shared locks absorb skew); "
        "update-heavy = 100% read-modify-write (exclusive locks serialize "
        "the head keys)",
        grid=lambda profile: [
            (theta, read_fraction) for theta in THETAS for read_fraction in (0.95, 0.0)
        ],
        cell=_skew_cell,
        fold=_skew_fold,
        claims=(
            ("skew collapses update-heavy throughput (worst < 0.7x uniform)",
             lambda r: _skew_drop(r, "update-heavy txn/s") < 0.7),
            ("read-heavy traffic loses less to skew than update-heavy",
             lambda r: _skew_drop(r, "read-heavy txn/s") > _skew_drop(r, "update-heavy txn/s")),
        ),
    ),
    Experiment(
        name="ablation-lockmanager",
        label="Ablation (lock manager)",
        title="Lock-manager shards vs per-machine throughput (32 workers)",
        headers=("shards", "per-machine txn/s", "p50 ms", "mean locked txns", "peak queued"),
        notes="lock_request_cpu raised 4x so admission, not workers, binds — "
        "isolating the serialization point the paper's design accepts; "
        "occupancy sampled once per epoch, not per grant",
        grid=lambda profile: [(shards,) for shards in (1, 2, 4, 8)],
        cell=_lockmanager_cell,
        claims=(
            ("4 shards lift throughput near-linearly (> 2.5x one shard)",
             lambda r: _where(r, "shards", 4)["per-machine txn/s"]
             > 2.5 * _where(r, "shards", 1)["per-machine txn/s"]),
            ("4 shards cut p50 latency",
             lambda r: _where(r, "shards", 4)["p50 ms"] < _where(r, "shards", 1)["p50 ms"]),
        ),
    ),
    Experiment(
        name="latency-breakdown",
        label="Latency breakdown",
        title="Latency decomposition vs multipartition fraction",
        headers=(
            "mp %",
            "p50 ms",
            "p99 ms",
            "sequence ms",
            "lock wait ms",
            "execute ms",
            "remote read ms",
        ),
        notes="phase columns are mean span durations from the trace recorder "
        "(measurement window only): sequence = submit -> epoch close, "
        "lock wait = admission -> all locks granted, remote read = waiting "
        "on other partitions' values; "
        "clients kept below saturation so queueing does not mask the floor",
        grid=lambda profile: [(mp_fraction,) for mp_fraction in (0.0, 0.1, 0.5, 1.0)],
        cell=_latency_cell,
        claims=(
            ("the sequencing floor barely moves with mp % (max < 2.5x min)",
             lambda r: max(r.column("sequence ms")) < 2.5 * min(r.column("sequence ms"))),
            ("the sequencing floor is epoch batching (3-15 ms at 0% mp)",
             lambda r: 3 < r.column("sequence ms")[0] < 15),
            ("single-partition transactions never wait on remote reads",
             lambda r: r.column("remote read ms")[0] == 0.0),
            ("the remote-read wait appears at 100% multipartition (> 0.1 ms)",
             lambda r: r.column("remote read ms")[-1] > 0.1),
            ("p50 stays a few epochs at 100% multipartition (< 40 ms)",
             lambda r: r.column("p50 ms")[-1] < 40),
        ),
    ),
    Experiment(
        name="ablation-fanout",
        label="Ablation (fan-out)",
        title="Participants per multipartition txn vs throughput (100% mp)",
        headers=("participants", "total txn/s", "per-machine txn/s", "p50 ms"),
        notes="one remote-read exchange regardless of fan-out — no 2PC cliff",
        grid=_fanout_grid,
        cell=_fanout_cell,
        claims=(
            ("the cluster fits at least one fan-out", lambda r: bool(r.rows)),
            ("per-machine throughput declines with fan-out",
             lambda r: r.column("per-machine txn/s")
             == sorted(r.column("per-machine txn/s"), reverse=True)),
            ("no coordination cliff (widest fan-out > 0.1x narrowest)",
             lambda r: r.column("per-machine txn/s")[-1] > r.column("per-machine txn/s")[0] / 10),
            ("latency stays bounded (p50 < 400 ms)",
             lambda r: all(p50 < 400 for p50 in r.column("p50 ms"))),
        ),
    ),
    Experiment(
        name="ollp-restarts",
        label="OLLP (restarts)",
        title="Dependent-txn restarts vs New Order share (TPC-C)",
        headers=(
            "new_order %",
            "total txn/s",
            "deliveries/s",
            "restarts/s",
            "restart ratio",
        ),
        notes="restart ratio = restarts / (restarts + committed deliveries); "
        "New Orders invalidate a Delivery's footprint when they change a "
        "district queue HEAD — i.e. when queues hover near empty — so the "
        "ratio jumps as churn appears, then eases as queues stay non-empty",
        grid=lambda profile: [(share,) for share in (0.0, 0.3, 0.6, 0.9)],
        cell=_ollp_cell,
        claims=(
            ("no queue churn, no restarts", lambda r: r.column("restart ratio")[0] == 0),
            ("churn causes restart pressure (some ratio > 0.3)",
             lambda r: max(r.column("restart ratio")[1:]) > 0.3),
            ("deliveries commit at every churn level",
             lambda r: all(rate > 0 for rate in r.column("deliveries/s"))),
            ("OLLP's bounded retries converge (every ratio < 0.97)",
             lambda r: all(ratio < 0.97 for ratio in r.column("restart ratio"))),
        ),
    ),
    Experiment(
        name="saturation",
        label="saturation",
        title="Open-loop knee curve (poisson arrivals, backpressure, 2 partitions)",
        headers=(
            "offered_frac",
            "offered/s",
            "admitted/s",
            "committed/s",
            "p50_ms",
            "p95_ms",
            "p99_ms",
            "queue_peak",
            "rejected",
        ),
        notes=f"admission capacity {_SATURATION_CAPACITY:,.0f} txn/s "
        f"({EPOCH_BUDGET}/epoch x {_SATURATION_PARTITIONS} nodes); committed "
        "throughput plateaus there while p99 and the intake queue grow — the knee",
        grid=lambda profile: [(fraction,) for fraction in _FRACTIONS[profile.name]],
        cell=_saturation_cell,
        claims=(
            ("the offered-load ladder climbs",
             lambda r: r.column("offered_frac") == sorted(r.column("offered_frac"))),
            ("the under-offered rung commits below 0.75x admission capacity",
             lambda r: r.column("committed/s")[0] < 0.75 * _SATURATION_CAPACITY),
            ("committed throughput plateaus at admission capacity (overloaded rung <= 1.05x)",
             lambda r: r.column("committed/s")[-1] <= 1.05 * _SATURATION_CAPACITY),
            ("the overloaded rung is offered more than admission capacity",
             lambda r: r.column("offered/s")[-1] > _SATURATION_CAPACITY),
            ("the knee: p99 past saturation exceeds 2x the under-offered rung's",
             lambda r: r.column("p99_ms")[-1] > 2 * r.column("p99_ms")[0]),
            ("the overloaded rung rejects load",
             lambda r: r.column("rejected")[-1] > 0),
        ),
    ),
    Experiment(
        name="engine-shootout",
        label="engine-shootout",
        title=f"core vs baseline vs star, {_SHOOTOUT_PARTITIONS} partitions",
        headers=(
            "contention",
            "hot_set",
            "mp_%",
            "core_tps",
            "baseline_tps",
            "star_tps",
            "single_node_tps",
            "star/calvin",
        ),
        notes="single_node_tps = the same per-partition workload on one partition: "
        "the ceiling STAR's master stays below at 100 % multipartition",
        grid=_shootout_grid,
        cell=_shootout_cell,
        fold=_shootout_fold,
        claims=(
            ("star beats core at low contention for every 0 < mp <= 10 %",
             lambda r: all(row["star/calvin"] > 1
                           for row in _shootout_rows(r, "low", 0, 10))),
            ("star loses to core at high contention and 5 % mp",
             lambda r: all(row["star/calvin"] < 1
                           for row in _shootout_rows(r, "high", 0, 5))),
            ("at 100 % mp star stays below the single-node reference",
             lambda r: all(row["star_tps"] < row["single_node_tps"]
                           for contention in ("low", "high")
                           for row in _shootout_rows(r, contention, 99, 100))),
            ("at high contention and 100 % mp star beats core",
             lambda r: all(row["star/calvin"] > 1
                           for row in _shootout_rows(r, "high", 99, 100))),
        ),
    ),
    Experiment(
        name="geo-contention",
        label="geo-contention",
        title="WAN contention collapse (chain of 3 DCs, 2 partitions, paxos input replication)",
        headers=(
            "bandwidth_mbps",
            "committed/s",
            "p50_ms",
            "p99_ms",
            "max_link_util",
            "wan_mb",
        ),
        notes="as per-link bandwidth shrinks the Paxos batches and writesets "
        "congest the chain: the bottleneck link saturates, latency turns "
        "bandwidth-bound and commits collapse (p50/p99 read 0 where nothing commits)",
        grid=lambda profile: [(bandwidth,) for bandwidth in _BANDWIDTHS[profile.name]],
        cell=_geo_contention_cell,
        claims=(
            ("the unconstrained WAN commits at propagation latency (p50 < 40 ms)",
             lambda r: 0 < r.column("p50_ms")[0] < 40),
            ("past the knee latency is bandwidth-bound (some p50 > 4x the unconstrained one)",
             lambda r: max(r.column("p50_ms")) > 4 * r.column("p50_ms")[0]),
            ("the narrowest rung saturates the bottleneck link (max_link_util > 0.85)",
             lambda r: r.column("max_link_util")[-1] > 0.85),
            ("commits collapse at the narrowest rung (< 0.25x unconstrained)",
             lambda r: r.column("committed/s")[-1] < 0.25 * r.column("committed/s")[0]),
        ),
    ),
    Experiment(
        name="geo-reads",
        label="geo-reads",
        title=f"Replica-local reads (ring, 2 partitions, {_READ_CLIENTS} read clients "
        "spread across DCs)",
        headers=(
            "replicas",
            "mode",
            "ro_qps",
            "ro_p50_ms",
            "staleness_p50",
            "staleness_p99",
            "writes/s",
            "remote_hit_frac",
        ),
        notes="mode=input sends every read to replica 0 at the input site; "
        "mode=local reads the nearest hosting replica, at the price of the "
        "staleness columns (epochs the serving replica's watermark lags the "
        "input site's clock)",
        grid=lambda profile: [
            (replicas, mode)
            for replicas in _REPLICA_LADDER[profile.name]
            for mode in ("input", "local")
        ],
        cell=_geo_reads_cell,
        claims=(
            ("input-site read throughput falls as replicas are added",
             lambda r: all(later < earlier for earlier, later
                           in zip(_geo_reads_qps(r, "input"), _geo_reads_qps(r, "input")[1:]))),
            ("replica-local read throughput stays flat (max < 1.05x min)",
             lambda r: max(_geo_reads_qps(r, "local")) < 1.05 * min(_geo_reads_qps(r, "local"))),
            ("replica-local reads out-run input-site reads at every replica count",
             lambda r: all(local > remote for local, remote
                           in zip(_geo_reads_qps(r, "local"), _geo_reads_qps(r, "input")))),
            ("only local reads are served away from the input site (remote_hit_frac > 0)",
             lambda r: all((row["remote_hit_frac"] > 0) == (row["mode"] == "local")
                           for row in r.as_dicts())),
            ("staleness stays bounded (every p99 <= 6 epochs)",
             lambda r: max(r.column("staleness_p99")) <= 6),
        ),
    ),
    Experiment(
        name="elastic",
        label="elastic",
        title=f"Elastic reconfiguration under open-loop overload ({_ELASTIC_PARTITIONS} "
        f"partitions, {_ELASTIC_ACTIVE} active, backpressure)",
        headers=(
            "scenario",
            "committed",
            "committed/s",
            "p50_ms",
            "p99_ms",
            "keys_moved",
            "origins_after",
            "digest",
        ),
        notes="each scenario rebuilds the cluster from the same seed; the digest "
        "column hashes (input log, final state, reconfig events), so any "
        "routing or migration nondeterminism changes it",
        grid=lambda profile: [(scenario,) for scenario in SCENARIOS],
        cell=_elastic_cell,
        claims=(
            ("a static cluster moves no keys and keeps its two origins",
             lambda r: (_where(r, "scenario", "static")["keys_moved"],
                        _where(r, "scenario", "static")["origins_after"]) == (0, "0,1")),
            ("a split moves keys onto a spare (origins 0,1,2)",
             lambda r: _where(r, "scenario", "split")["keys_moved"] > 0
             and _where(r, "scenario", "split")["origins_after"] == "0,1,2"),
            ("a resize retires origin 1 after the split (origins 0,2)",
             lambda r: _where(r, "scenario", "resize")["origins_after"] == "0,2"),
            ("the autoscaler scales out under overload (more than two origins)",
             lambda r: len(_where(r, "scenario", "autoscale")["origins_after"].split(",")) > 2),
            ("every scenario keeps committing through its resize (> 0.75x static)",
             lambda r: min(r.column("committed/s"))
             > 0.75 * _where(r, "scenario", "static")["committed/s"]),
            ("each scenario leaves its own digest",
             lambda r: len(set(r.column("digest"))) == len(SCENARIOS)),
        ),
    ),
)

#: Experiment name -> declaration, in paper order.
EXPERIMENTS: Dict[str, Experiment] = {experiment.name: experiment for experiment in _TABLE}


def run_experiment(
    name: str, scale: str = "quick", seed: int = 2012, jobs: Optional[int] = None
) -> ExperimentResult:
    """Sweep ``name``'s grid at ``scale`` and fold it into its table.

    Cells run in parameter order at any ``jobs`` count, so the table is
    byte-identical serial or fanned out. The shape claims are not
    checked here: :meth:`Experiment.failed_claims` does that.
    """
    experiment = EXPERIMENTS[name]
    profile = ScaleProfile.get(scale)
    result = ExperimentResult(
        experiment=experiment.label,
        title=experiment.title,
        headers=experiment.headers,
        notes=experiment.notes,
    )
    params = [(*cell, profile, seed) for cell in experiment.grid(profile)]
    experiment.fold(result, sweep(experiment.cell, params, jobs=jobs))
    return result
