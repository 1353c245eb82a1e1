"""E3 / paper Figure 7 — slowdown under contention, Calvin vs 2PC baseline.

Microbenchmark with 10% multipartition transactions; the contention
index (1 / hot-set size) sweeps from 0.0001 toward 1. Each system's
throughput is normalized to its own lowest-contention point, so the
table reports *slowdown factors*. The paper shows the System R*-style
system degrading dramatically sooner and deeper than Calvin, because it
holds locks across two-phase commit and suffers deadlock aborts.
"""

from __future__ import annotations

from typing import Optional

from repro.bench.harness import ScaleProfile, measure
from repro.bench.parallel import sweep
from repro.bench.reporting import ExperimentResult
from repro.config import ClusterConfig
from repro.workloads.microbenchmark import Microbenchmark

CONTENTION_HOT_SETS = (10000, 1000, 100, 10, 2, 1)


def _cell(engine: str, hot_set: int, machines: int, scale: str, seed: int) -> float:
    profile = ScaleProfile.get(scale)
    workload = Microbenchmark(mp_fraction=0.10, hot_set_size=hot_set)
    config = ClusterConfig(num_partitions=machines, seed=seed, engine=engine)
    return measure(workload, config, profile).throughput


def run(
    scale: str = "quick",
    seed: int = 2012,
    machines: int = 2,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment="Fig7 (E3)",
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
    )
    params = [
        (engine, hot_set, machines, scale, seed)
        for hot_set in CONTENTION_HOT_SETS
        for engine in ("core", "baseline")
    ]
    rates = sweep(_cell, params, jobs=jobs)
    calvin_rates = rates[0::2]
    baseline_rates = rates[1::2]
    calvin_reference = max(calvin_rates[0], 1e-9)
    baseline_reference = max(baseline_rates[0], 1e-9)
    for index, hot_set in enumerate(CONTENTION_HOT_SETS):
        result.add_row(
            1.0 / hot_set,
            calvin_rates[index],
            calvin_reference / max(calvin_rates[index], 1e-9),
            baseline_rates[index],
            baseline_reference / max(baseline_rates[index], 1e-9),
        )
    return result


if __name__ == "__main__":
    print(run())
