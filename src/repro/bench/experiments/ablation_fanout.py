"""Ablation — multipartition fan-out (participants per transaction).

The paper's microbenchmark caps multipartition transactions at two
participants. This sweep extends it: each additional participant adds
per-node message handling and another partition's locks, but the
protocol still needs only ONE remote-read exchange (no commit round),
so throughput degrades roughly with the total per-transaction work
rather than falling off a coordination cliff.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.bench.harness import ScaleProfile, measure
from repro.bench.parallel import sweep
from repro.bench.reporting import ExperimentResult
from repro.config import ClusterConfig
from repro.workloads.microbenchmark import Microbenchmark

FANOUTS = (2, 3, 4, 6)


def _cell(fanout: int, machines: int, scale: str, seed: int) -> Tuple:
    profile = ScaleProfile.get(scale)
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


def run(
    scale: str = "quick",
    seed: int = 2012,
    machines: int = 6,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    profile = ScaleProfile.get(scale)
    machines = min(machines, profile.max_machines)
    result = ExperimentResult(
        experiment="Ablation (fan-out)",
        title="Participants per multipartition txn vs throughput (100% mp)",
        headers=("participants", "total txn/s", "per-machine txn/s", "p50 ms"),
        notes="one remote-read exchange regardless of fan-out — no 2PC cliff",
    )
    params = [
        (fanout, machines, scale, seed) for fanout in FANOUTS if fanout <= machines
    ]
    for row in sweep(_cell, params, jobs=jobs):
        result.add_row(*row)
    return result


if __name__ == "__main__":
    print(run())
