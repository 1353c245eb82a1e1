"""Ablation — epoch duration (DESIGN.md decision 4).

Calvin batches inputs into 10 ms epochs. Shorter epochs cut the
sequencing latency floor but multiply per-epoch overheads (sub-batch
fan-out is O(partitions²) messages per epoch); longer epochs amortize
overheads at the cost of latency. This sweep quantifies the trade.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.bench.harness import ScaleProfile, measure
from repro.bench.parallel import sweep
from repro.bench.reporting import ExperimentResult
from repro.config import ClusterConfig
from repro.workloads.microbenchmark import Microbenchmark

EPOCHS = (0.002, 0.005, 0.010, 0.020, 0.050)


def _cell(epoch: float, machines: int, scale: str, seed: int) -> Tuple:
    profile = ScaleProfile.get(scale)
    workload = Microbenchmark(mp_fraction=0.10, hot_set_size=10000)
    config = ClusterConfig(num_partitions=machines, seed=seed, epoch_duration=epoch)
    report = measure(workload, config, profile)
    return (
        epoch * 1e3,
        report.throughput,
        report.latency_p50 * 1e3,
        report.latency_p99 * 1e3,
    )


def run(
    scale: str = "quick",
    seed: int = 2012,
    machines: int = 4,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment="Ablation (epoch)",
        title="Epoch duration: throughput vs latency",
        headers=("epoch ms", "total txn/s", "p50 ms", "p99 ms"),
        notes="the paper fixes 10ms; latency floor tracks epoch length",
    )
    params = [(epoch, machines, scale, seed) for epoch in EPOCHS]
    for row in sweep(_cell, params, jobs=jobs):
        result.add_row(*row)
    return result


if __name__ == "__main__":
    print(run())
