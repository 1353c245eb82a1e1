"""Geo experiments: ``repro bench geo``.

Two deterministic curves over the geo topology subsystem:

1. **WAN contention collapse** — a chain of datacenters replicating the
   input through Paxos while multipartition commits cross the same
   links; as per-link bandwidth shrinks, the shared channels congest,
   queueing delay grows, and commit latency collapses from
   propagation-bound to bandwidth-bound.
2. **Replica-local reads vs freshness** — read-only clients spread
   across datacenters read from their closest replica; throughput
   scales with replica count while the measured staleness bound shows
   what that locality costs in freshness.

Every rung builds a fresh cluster from the same seed, so the whole
sweep is deterministic — ``digest()`` over the rounded rows is a
regression oracle (same seed ⇒ same digest).
"""

from __future__ import annotations

import hashlib
from typing import Dict, Optional, Tuple

from repro.bench.harness import ScaleProfile
from repro.bench.parallel import sweep
from repro.bench.reporting import ExperimentResult
from repro.config import ClusterConfig
from repro.core.cluster import CalvinCluster
from repro.core.traffic import ClientProfile
from repro.errors import ConfigError
from repro.geo.readonly import add_read_clients
from repro.workloads.microbenchmark import Microbenchmark

# Infinite-bandwidth rung: the propagation-only baseline.
_UNCONSTRAINED = float("inf")

# Per-link WAN bandwidth ladder, bytes/second. The low rungs are where
# per-hop transfer time rivals propagation latency for this workload's
# KB-scale batches — that is where the collapse lives.
_BANDWIDTHS: Dict[str, Tuple[float, ...]] = {
    "smoke": (_UNCONSTRAINED, 1.25e5),
    "quick": (_UNCONSTRAINED, 1.25e6, 2.5e5, 1.25e5),
    "full": (_UNCONSTRAINED, 1.25e6, 5e5, 2.5e5, 1.25e5, 6.25e4),
}

_REPLICA_LADDER: Dict[str, Tuple[int, ...]] = {
    "smoke": (2, 3),
    "quick": (2, 3, 4),
    "full": (2, 3, 4, 5),
}

_WRITE_CLIENTS_PER_PARTITION = 4
_READ_CLIENTS_TOTAL = 12


def _mbps(bandwidth: float) -> float:
    """Bytes/second -> megabits/second (the table unit)."""
    return bandwidth * 8 / 1e6


def _max_link_utilization(cluster: CalvinCluster) -> float:
    network = cluster.network
    now = cluster.sim.now
    if network.geo is None or now <= 0:
        return 0.0
    return max(
        (
            network._channel_stat((link.src, link.dst), "busy_time") / now
            for link in network.geo.links()
        ),
        default=0.0,
    )


def _collapse_rung(
    bandwidth: float,
    scale: str,
    seed: int,
    topology: str,
    replicas: int,
    partitions: int,
) -> Tuple:
    """One bandwidth rung of the contention-collapse ladder."""
    profile = ScaleProfile.get(scale)
    workload = Microbenchmark(
        mp_fraction=0.3, hot_set_size=10_000, cold_set_size=10_000
    )
    config = ClusterConfig(
        num_partitions=partitions,
        num_replicas=replicas,
        replication_mode="paxos",
        topology=topology,
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
        _mbps(bandwidth),
        report.throughput,
        latency.percentile(50) * 1e3,
        latency.percentile(99) * 1e3,
        _max_link_utilization(cluster),
        cluster.network.wan_bytes / 1e6,
    )


def contention_collapse(
    scale: str = "quick",
    seed: int = 2012,
    topology: str = "chain",
    replicas: int = 3,
    partitions: int = 2,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Commit latency vs per-link WAN bandwidth on a routed topology."""
    ScaleProfile.get(scale)  # validate before any rung runs
    try:
        bandwidths = _BANDWIDTHS[scale]
    except KeyError:  # pragma: no cover - ScaleProfile.get raised first
        raise ConfigError(f"unknown scale {scale!r}") from None

    result = ExperimentResult(
        experiment="geo-contention",
        title=(
            f"WAN contention collapse — {topology} of {replicas} DCs, "
            f"{partitions} partitions, paxos input replication"
        ),
        headers=(
            "bandwidth_mbps",
            "committed/s",
            "p50_ms",
            "p99_ms",
            "max_link_util",
            "wan_mb",
        ),
    )
    params = [
        (bandwidth, scale, seed, topology, replicas, partitions)
        for bandwidth in bandwidths
    ]
    for row in sweep(_collapse_rung, params, jobs=jobs):
        result.add_row(*row)
    result.notes = (
        "as per-link bandwidth shrinks the Paxos batches and writesets "
        "congest the chain: latency flips from propagation-bound to "
        "bandwidth-bound while the bottleneck link's utilization "
        "approaches 1.0"
    )
    return result


def read_scaling(
    scale: str = "quick",
    seed: int = 2012,
    topology: str = "ring",
    partitions: int = 2,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Replica-local read throughput and staleness vs replica count."""
    profile = ScaleProfile.get(scale)
    try:
        ladder = _REPLICA_LADDER[scale]
    except KeyError:  # pragma: no cover - ScaleProfile.get raised first
        raise ConfigError(f"unknown scale {scale!r}") from None

    result = ExperimentResult(
        experiment="geo-reads",
        title=(
            f"replica-local reads — {topology} topology, {partitions} "
            f"partitions, {_READ_CLIENTS_TOTAL} read clients spread across DCs"
        ),
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
    )
    params = [
        (seed, topology, partitions, replicas, mode, profile)
        for replicas in ladder
        for mode in ("input", "local")
    ]
    for row in sweep(_read_rung, params, jobs=jobs):
        result.add_row(*row)
    result.notes = (
        "mode=input sends every read across the WAN to replica 0; "
        "mode=local reads the nearest hosting replica — throughput "
        "multiplies and latency drops to LAN scale, at the price of the "
        "staleness column (epochs the serving replica's watermark lags "
        "the input site's clock)"
    )
    return result


def _read_rung(
    seed: int,
    topology: str,
    partitions: int,
    replicas: int,
    mode: str,
    profile: ScaleProfile,
) -> Tuple:
    workload = Microbenchmark(
        mp_fraction=0.1, hot_set_size=1_000, cold_set_size=1_000
    )
    config = ClusterConfig(
        num_partitions=partitions,
        num_replicas=replicas,
        replication_mode="paxos",
        topology=topology,
        wan_latency=0.01,
        seed=seed,
    )
    cluster = CalvinCluster(config, workload=workload, record_history=False)
    cluster.load_workload_data()
    cluster.add_clients(ClientProfile(per_partition=_WRITE_CLIENTS_PER_PARTITION))
    readers = add_read_clients(
        cluster,
        _READ_CLIENTS_TOTAL,
        max_txns=None,
        replica_local=(mode == "local"),
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
    duration = report.duration
    reads = sum(client.completed for client in readers) - reads_before
    remote = sum(client.local_replica_hits for client in readers) - remote_before
    return (
        replicas,
        mode,
        reads / duration,
        latency.percentile(50),
        staleness.percentile(50),
        staleness.percentile(99),
        report.throughput,
        (remote / reads) if reads else 0.0,
    )


def digest(*results: ExperimentResult) -> str:
    """sha256 over the rounded rows: the determinism oracle."""
    hasher = hashlib.sha256()
    for result in results:
        hasher.update(result.experiment.encode())
        for row in result.rows:
            rounded = tuple(
                round(value, 6) if isinstance(value, float) else value
                for value in row
            )
            hasher.update(repr(rounded).encode())
    return hasher.hexdigest()


def run(
    scale: str = "quick",
    seed: int = 2012,
    topology: str = "chain",
    replicas: int = 3,
    partitions: int = 2,
    jobs: Optional[int] = None,
) -> Tuple[ExperimentResult, ExperimentResult, str]:
    """Both geo curves plus their combined determinism digest."""
    collapse = contention_collapse(
        scale, seed, topology=topology, replicas=replicas, partitions=partitions,
        jobs=jobs,
    )
    reads = read_scaling(scale, seed, partitions=partitions, jobs=jobs)
    return collapse, reads, digest(collapse, reads)
