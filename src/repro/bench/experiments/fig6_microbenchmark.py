"""E2 / paper Figure 6 — microbenchmark per-machine throughput scalability.

Per-machine throughput versus cluster size at 0%, 10% and 100%
multipartition transactions, low contention. The paper shows ~27 k
txns/s/machine at 0% (flat), a drop to roughly half when 10% of
transactions are multipartition, and a much lower but still flat-ish
curve at 100%.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.bench.harness import ScaleProfile, machine_sweep, measure
from repro.bench.parallel import sweep
from repro.bench.reporting import ExperimentResult
from repro.config import ClusterConfig
from repro.workloads.microbenchmark import Microbenchmark

MP_FRACTIONS = (0.0, 0.10, 1.0)


def _cell(mp_fraction: float, machines: int, scale: str, seed: int) -> Tuple:
    profile = ScaleProfile.get(scale)
    workload = Microbenchmark(mp_fraction=mp_fraction, hot_set_size=10000)
    config = ClusterConfig(num_partitions=machines, seed=seed)
    report = measure(workload, config, profile)
    return (
        machines,
        int(mp_fraction * 100),
        report.throughput / machines,
        report.throughput,
    )


def run(scale: str = "quick", seed: int = 2012, jobs: Optional[int] = None) -> ExperimentResult:
    profile = ScaleProfile.get(scale)
    result = ExperimentResult(
        experiment="Fig6 (E2)",
        title="Microbenchmark per-machine throughput vs machines",
        headers=("machines", "mp %", "per-machine txn/s", "total txn/s"),
        notes="paper: ~27k/machine at 0% mp; large drop at 100% mp; near-flat scaling",
    )
    machines_list = machine_sweep(profile, targets=(2, 4, 8, 16))
    params = [
        (mp_fraction, machines, scale, seed)
        for mp_fraction in MP_FRACTIONS
        for machines in machines_list
    ]
    for row in sweep(_cell, params, jobs=jobs):
        result.add_row(*row)
    return result


if __name__ == "__main__":
    print(run())
