"""Ablation — sharding the lock-manager thread (DESIGN.md decision 2).

The paper's scheduler serializes all lock requests through one lock
manager thread; at high worker counts that thread becomes the node's
throughput ceiling. Sharding the lock table by key (each shard its own
in-order thread) preserves per-key determinism and lifts the ceiling —
the direction later deterministic-database work explored. This sweep
measures single-partition microbenchmark throughput with an enlarged
worker pool, so the admission path is the binding constraint.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.bench.harness import LockStatsSampler, ScaleProfile, measure
from repro.bench.parallel import sweep
from repro.bench.reporting import ExperimentResult
from repro.config import ClusterConfig, CostModel
from repro.workloads.microbenchmark import Microbenchmark

SHARD_COUNTS = (1, 2, 4, 8)


def _cell(shards: int, machines: int, scale: str, seed: int) -> Tuple:
    profile = ScaleProfile.get(scale)
    costs = CostModel(lock_request_cpu=6e-6)
    workload = Microbenchmark(mp_fraction=0.0, hot_set_size=10000)
    config = ClusterConfig(
        num_partitions=machines,
        seed=seed,
        workers_per_node=32,
        lock_manager_shards=shards,
        costs=costs,
    )
    sampler = LockStatsSampler()
    report = measure(
        workload, config, profile,
        clients_per_partition=profile.clients_per_partition * 2,
        on_cluster=sampler.attach,
    )
    return (
        shards,
        report.throughput / machines,
        report.latency_p50 * 1e3,
        round(sampler.mean_active(), 1),
        sampler.peak_queued(),
    )


def run(
    scale: str = "quick",
    seed: int = 2012,
    machines: int = 1,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment="Ablation (lock manager)",
        title="Lock-manager shards vs per-machine throughput (32 workers)",
        headers=("shards", "per-machine txn/s", "p50 ms", "mean locked txns", "peak queued"),
        notes="lock_request_cpu raised 4x so admission, not workers, binds — "
        "isolating the serialization point the paper's design accepts; "
        "occupancy sampled once per epoch, not per grant",
    )
    params = [(shards, machines, scale, seed) for shards in SHARD_COUNTS]
    for row in sweep(_cell, params, jobs=jobs):
        result.add_row(*row)
    return result


if __name__ == "__main__":
    print(run())
