"""Ablation — worker pool size (execution concurrency per node).

Per-machine throughput versus the number of worker contexts. Throughput
scales with workers while they are the bottleneck, then flattens when
the single-threaded lock-manager admission (Calvin's serialization
point, ~O(locks x lock_request_cpu) per transaction) takes over —
the same ceiling the paper's single-lock-manager design discussion
implies.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.bench.harness import ScaleProfile, measure
from repro.bench.parallel import sweep
from repro.bench.reporting import ExperimentResult
from repro.config import ClusterConfig
from repro.workloads.microbenchmark import Microbenchmark

WORKER_COUNTS = (2, 4, 8, 16, 32)


def _cell(workers: int, machines: int, scale: str, seed: int) -> Tuple:
    profile = ScaleProfile.get(scale)
    workload = Microbenchmark(mp_fraction=0.10, hot_set_size=10000)
    config = ClusterConfig(
        num_partitions=machines, seed=seed, workers_per_node=workers
    )
    report = measure(workload, config, profile)
    return (workers, report.throughput / machines, report.latency_p50 * 1e3)


def run(
    scale: str = "quick",
    seed: int = 2012,
    machines: int = 2,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment="Ablation (workers)",
        title="Worker contexts per node vs per-machine throughput",
        headers=("workers", "per-machine txn/s", "p50 ms"),
        notes="flattens when the single lock-manager thread becomes the bound",
    )
    params = [(workers, machines, scale, seed) for workers in WORKER_COUNTS]
    for row in sweep(_cell, params, jobs=jobs):
        result.add_row(*row)
    return result


if __name__ == "__main__":
    print(run())
