"""Shared plumbing for experiments: build, load, saturate, measure."""

from __future__ import annotations

import gc
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.config import ClusterConfig
from repro.core.cluster import CalvinCluster, Cluster
from repro.core.metrics import RunReport
from repro.core.traffic import ClientProfile
from repro.engines import build_cluster
from repro.errors import ConfigError
from repro.obs import TraceRecorder
from repro.workloads.base import Workload

# Enough closed-loop clients per partition to saturate a node's workers
# through the ~10 ms epoch latency.
SATURATION_CLIENTS = 400


@dataclass(frozen=True)
class ScaleProfile:
    """Wall-clock/fidelity trade-off for experiments."""

    name: str
    warmup: float          # virtual seconds before the measurement window
    duration: float        # virtual seconds measured
    clients_per_partition: int
    max_machines: int      # cap on cluster-size sweeps

    @staticmethod
    def get(name: str) -> "ScaleProfile":
        try:
            return _PROFILES[name]
        except KeyError:
            raise ConfigError(
                f"unknown scale {name!r}; use one of {sorted(_PROFILES)}"
            ) from None


_PROFILES = {
    "smoke": ScaleProfile("smoke", warmup=0.12, duration=0.15, clients_per_partition=150, max_machines=4),
    "quick": ScaleProfile("quick", warmup=0.2, duration=0.3, clients_per_partition=SATURATION_CLIENTS, max_machines=8),
    "full": ScaleProfile("full", warmup=0.4, duration=1.0, clients_per_partition=SATURATION_CLIENTS, max_machines=16),
}


class LockStatsSampler:
    """Samples lock-manager occupancy once per sequencing epoch.

    Reading ``active_txns`` / ``queued_requests`` walks every shard's
    lock table, so doing it after every grant scales with the *grant*
    rate and distorts exactly the experiments that stress the lock
    manager. Sampling on an epoch timer bounds the cost by the epoch
    rate instead, and a per-epoch time series is all the ablations
    report anyway (window means and peaks).
    """

    def __init__(self) -> None:
        # (virtual time, active txns, queued lock requests), replica 0.
        self.samples: List[Tuple[float, int, int]] = []

    def attach(self, cluster: CalvinCluster) -> None:
        """Install the epoch-periodic sampling timer on ``cluster``."""
        sim = cluster.sim
        interval = cluster.config.epoch_duration
        schedulers = [
            cluster.node(0, partition).scheduler
            for partition in range(cluster.config.num_partitions)
        ]

        def sample() -> None:
            active = queued = 0
            for scheduler in schedulers:
                shard_active, shard_queued = scheduler.lock_occupancy()
                active += shard_active
                queued += shard_queued
            self.samples.append((sim.now, active, queued))
            sim.schedule(interval, sample)

        # Offset to mid-epoch: sampling exactly on epoch boundaries
        # phase-locks with admission and reads a drained lock table.
        sim.schedule(interval * 0.5, sample)

    def mean_active(self) -> float:
        if not self.samples:
            return 0.0
        return sum(s[1] for s in self.samples) / len(self.samples)

    def peak_queued(self) -> int:
        return max((s[2] for s in self.samples), default=0)


def measure(
    workload: Workload,
    config: ClusterConfig,
    profile: ScaleProfile,
    clients_per_partition: Optional[int] = None,
    tracer: Optional[TraceRecorder] = None,
    on_cluster: Optional[Callable[[Cluster], None]] = None,
) -> RunReport:
    """Build the cluster ``config.engine`` names, saturate it, measure
    one window.

    Pass a live :class:`TraceRecorder` to collect per-phase spans for
    the run (e.g. for the latency-breakdown experiment), or an
    ``on_cluster`` hook to instrument the built cluster before it runs
    (e.g. attach a :class:`LockStatsSampler`).

    A sweep holds one cluster at a time: the finished cluster is
    collected here, before the next cell builds its own.
    """
    cluster = build_cluster(config, workload, record_history=False, tracer=tracer)
    cluster.load_workload_data()
    cluster.add_clients(
        ClientProfile(
            per_partition=clients_per_partition or profile.clients_per_partition
        )
    )
    if on_cluster is not None:
        on_cluster(cluster)
    report = cluster.run(duration=profile.duration, warmup=profile.warmup)
    # A cluster is cyclic, so dropping it frees nothing until a full
    # collection, and Simulator.run keeps the collector off while it
    # dispatches: left alone, this cluster would sit beside the next
    # cell's through all of its build and warm-up.
    del cluster
    gc.collect()
    return report


def machine_sweep(profile: ScaleProfile, targets=(1, 2, 4, 8, 16)) -> list:
    """Cluster sizes to sweep, clipped to the profile's cap."""
    return [m for m in targets if m <= profile.max_machines]
