"""E1 / paper Figure 5 — TPC-C New Order scalability.

Workload: 100% New Order, 10% multi-warehouse order lines, warehouses
scale with machines (the paper's setup). The paper reports total
throughput growing near-linearly to ~500 k txns/sec at 100 machines
(≈5 k/machine) with per-machine throughput roughly flat.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.bench.harness import ScaleProfile, machine_sweep, measure
from repro.bench.parallel import sweep
from repro.bench.reporting import ExperimentResult
from repro.config import ClusterConfig
from repro.workloads.tpcc import TpccWorkload


def _cell(machines: int, clients: int, scale: str, seed: int) -> Tuple:
    profile = ScaleProfile.get(scale)
    workload = TpccWorkload(mix={"new_order": 1.0}, remote_fraction=0.10)
    config = ClusterConfig(num_partitions=machines, seed=seed)
    report = measure(workload, config, profile, clients_per_partition=clients)
    return (
        machines,
        report.throughput,
        report.throughput / machines,
        report.latency_p99 * 1e3,
    )


def run(scale: str = "quick", seed: int = 2012, jobs: Optional[int] = None) -> ExperimentResult:
    profile = ScaleProfile.get(scale)
    result = ExperimentResult(
        experiment="Fig5 (E1)",
        title="TPC-C New Order scalability (10% multi-warehouse)",
        headers=("machines", "total txn/s", "per-machine txn/s", "p99 ms"),
        notes="paper: near-linear total scaling, ~5k New Orders/s/machine",
    )
    # TPC-C New Orders have ~40-key footprints over a finite stock/district
    # key space: past moderate concurrency, extra closed-loop clients only
    # lengthen lock queues (convoying) without adding throughput. Offer a
    # saturating-but-not-thrashing load regardless of scale profile.
    clients = min(150, profile.clients_per_partition)
    params = [(machines, clients, scale, seed) for machines in machine_sweep(profile)]
    for row in sweep(_cell, params, jobs=jobs):
        result.add_row(*row)
    return result


if __name__ == "__main__":
    print(run())
