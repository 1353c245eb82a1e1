"""E5 / paper Section 4 — disk-based storage with sequencer prefetching.

Sweeps the fraction of transactions touching a disk-resident (archive)
record, with perfect and with badly wrong latency estimates. The paper's
claims: (a) the sequencer's prefetch-and-defer scheme sustains nearly
full throughput as long as the disk subsystem itself keeps up; (b) the
penalty of underestimating fetch latency is transactions stalling in the
scheduler while holding locks.
"""

from __future__ import annotations

from repro.bench.harness import ScaleProfile, measure
from repro.bench.reporting import ExperimentResult
from repro.config import ClusterConfig
from repro.workloads.microbenchmark import Microbenchmark

ARCHIVE_FRACTIONS = (0.0, 0.01, 0.02, 0.05, 0.10)


def run(scale: str = "quick", seed: int = 2012, machines: int = 2) -> ExperimentResult:
    profile = ScaleProfile.get(scale)
    result = ExperimentResult(
        experiment="E5 (Section 4)",
        title="Disk-resident transactions: prefetching and estimate error",
        headers=(
            "disk txn %",
            "txn/s (good estimate)",
            "txn/s (underestimated)",
            "p99 ms (good)",
            "p99 ms (under)",
        ),
        notes="disk device: 8-way, ~10ms access; 'underestimated' = sequencer "
        "predicts 0ms, so transactions stall holding locks",
    )
    for fraction in ARCHIVE_FRACTIONS:
        rows = []
        for error in (0.0, 1.0):
            workload = Microbenchmark(
                mp_fraction=0.0, archive_fraction=fraction, archive_set_size=50000
            )
            config = ClusterConfig(
                num_partitions=machines,
                seed=seed,
                disk_enabled=fraction > 0,
                disk_estimate_error=error,
            )
            rows.append(measure(workload, config, profile))
        result.add_row(
            fraction * 100,
            rows[0].throughput,
            rows[1].throughput,
            rows[0].latency_p99 * 1e3,
            rows[1].latency_p99 * 1e3,
        )
    return result


if __name__ == "__main__":
    print(run())
