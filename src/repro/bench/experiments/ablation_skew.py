"""Ablation — access skew (Zipfian theta) under deterministic locking.

YCSB-style workload: as the Zipf exponent rises, more traffic lands on
the hottest records. Reads share locks, so a read-heavy skewed workload
degrades far less than an update-heavy one — a clean view of the
deterministic lock manager's shared/exclusive behaviour that the paper's
hot-set microbenchmark (exclusive-only) cannot show.
"""

from __future__ import annotations

from typing import Optional

from repro.bench.harness import ScaleProfile, measure
from repro.bench.parallel import sweep
from repro.bench.reporting import ExperimentResult
from repro.config import ClusterConfig
from repro.workloads.ycsb import YcsbWorkload

THETAS = (0.0, 0.6, 0.9, 0.99, 1.2)


def _cell(theta: float, read_fraction: float, machines: int, scale: str, seed: int) -> float:
    profile = ScaleProfile.get(scale)
    workload = YcsbWorkload(
        records_per_partition=5000,
        theta=theta,
        read_fraction=read_fraction,
        mp_fraction=0.1,
    )
    config = ClusterConfig(num_partitions=machines, seed=seed)
    return measure(workload, config, profile).throughput


def run(
    scale: str = "quick",
    seed: int = 2012,
    machines: int = 2,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment="Ablation (skew)",
        title="Zipfian skew vs throughput (YCSB-style, 2 machines)",
        headers=("theta", "read-heavy txn/s", "update-heavy txn/s"),
        notes="read-heavy = 95% reads (shared locks absorb skew); "
        "update-heavy = 100% read-modify-write (exclusive locks serialize "
        "the head keys)",
    )
    params = [
        (theta, read_fraction, machines, scale, seed)
        for theta in THETAS
        for read_fraction in (0.95, 0.0)
    ]
    rates = sweep(_cell, params, jobs=jobs)
    for index, theta in enumerate(THETAS):
        result.add_row(theta, rates[2 * index], rates[2 * index + 1])
    return result


if __name__ == "__main__":
    print(run())
