"""Saturation sweep: ``repro bench saturation``.

Drives a Calvin cluster with *open-loop* clients at a ladder of offered
loads (fractions of the configured admission capacity) and reports the
throughput-vs-latency knee curve: committed throughput climbs with
offered load until the per-epoch admission budget saturates, then
plateaus while p99 latency and the intake queue blow up — the half of
the paper's methodology that closed-loop clients cannot produce.

Each rung of the ladder builds a *fresh* cluster from the same seed, so
the whole sweep is deterministic: the same invocation reproduces the
same table bit-for-bit, and committed throughput is monotone in offered
load up to the plateau.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.bench.harness import ScaleProfile
from repro.bench.parallel import sweep
from repro.bench.reporting import ExperimentResult
from repro.config import ClusterConfig
from repro.core.cluster import CalvinCluster
from repro.core.traffic import ClientProfile
from repro.errors import ConfigError
from repro.workloads.microbenchmark import Microbenchmark

# Admission budget per sequencing epoch. With the default 10 ms epoch
# this caps intake at 2,000 txn/s per node — far below what the
# execution layer can absorb, so the sweep measures the admission
# front-end (the knee position is exact), not scheduler contention.
EPOCH_BUDGET = 20

# Offered load as fractions of aggregate admission capacity.
_FRACTIONS: Dict[str, Tuple[float, ...]] = {
    "smoke": (0.5, 1.0, 1.75),
    "quick": (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0),
    "full": (0.25, 0.5, 0.75, 0.9, 1.0, 1.1, 1.25, 1.5, 2.0, 3.0),
}

_CLIENTS_PER_PARTITION = 8


def capacity_per_node(config: ClusterConfig) -> float:
    """Admission capacity of one input node, txns/sec."""
    return (config.admission_epoch_budget or 0) / config.epoch_duration


def _rung(
    fraction: float,
    scale: str,
    seed: int,
    policy: str,
    arrival: str,
    partitions: int,
) -> Tuple:
    """One offered-load rung: fresh cluster, one measured window."""
    profile = ScaleProfile.get(scale)
    config = ClusterConfig(
        num_partitions=partitions,
        seed=seed,
        admission_policy=policy,
        admission_epoch_budget=EPOCH_BUDGET,
        admission_queue_capacity=2 * EPOCH_BUDGET,
    )
    node_capacity = capacity_per_node(config)
    rate_per_client = fraction * node_capacity / _CLIENTS_PER_PARTITION
    workload = Microbenchmark(
        mp_fraction=0.1, hot_set_size=10_000, cold_set_size=10_000
    )
    cluster = CalvinCluster(config, workload=workload, record_history=False)
    cluster.load_workload_data()
    cluster.add_clients(
        ClientProfile(
            per_partition=_CLIENTS_PER_PARTITION,
            mode="open",
            arrival=arrival,
            rate=rate_per_client,
        )
    )
    cluster.run(duration=profile.warmup)
    # The warm-up run opened a window at t=0: drop its latency samples.
    cluster.metrics.latency.reset()
    before = cluster.admission_stats()
    report = cluster.run(duration=profile.duration)
    duration = report.duration
    after = cluster.admission_stats()

    offered_rate = (after["offered"] - before["offered"]) / duration
    admitted_rate = (after["admitted"] - before["admitted"]) / duration
    rejected = sum(
        after[key] - before[key]
        for key in ("shed", "dropped", "backpressured")
    )
    latency = cluster.metrics.latency
    return (
        fraction,
        offered_rate,
        admitted_rate,
        report.throughput,
        latency.percentile(50) * 1e3,
        latency.percentile(95) * 1e3,
        latency.percentile(99) * 1e3,
        after["peak_queue_depth"],
        rejected,
    )


def run(
    scale: str = "quick",
    seed: int = 2012,
    policy: str = "backpressure",
    arrival: str = "poisson",
    partitions: int = 2,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Sweep offered load across the admission knee; return the curve."""
    ScaleProfile.get(scale)  # validate before any rung runs
    try:
        fractions = _FRACTIONS[scale]
    except KeyError:  # pragma: no cover - ScaleProfile.get raised first
        raise ConfigError(f"unknown scale {scale!r}") from None

    result = ExperimentResult(
        experiment="saturation",
        title=(
            f"open-loop knee curve — {arrival} arrivals, "
            f"policy={policy}, {partitions} partitions"
        ),
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
    )

    capacity = capacity_per_node(
        ClusterConfig(
            num_partitions=partitions,
            seed=seed,
            admission_policy=policy,
            admission_epoch_budget=EPOCH_BUDGET,
            admission_queue_capacity=2 * EPOCH_BUDGET,
        )
    ) * partitions
    params = [
        (fraction, scale, seed, policy, arrival, partitions)
        for fraction in fractions
    ]
    for row in sweep(_rung, params, jobs=jobs):
        result.add_row(*row)

    result.notes = (
        f"admission capacity {capacity:,.0f} txn/s "
        f"({EPOCH_BUDGET}/epoch x {partitions} nodes); committed throughput "
        "plateaus there while p99 and the intake queue grow — the knee"
    )
    return result
