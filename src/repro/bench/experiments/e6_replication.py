"""E6 / abstract claim — Paxos WAN replication costs latency, not throughput.

The same microbenchmark runs with (a) no replication, (b) asynchronous
replication to 2 peer replicas, (c) Multi-Paxos agreement across 3
replica sites ~50 ms apart. Calvin replicates *inputs* before execution,
and Paxos instances pipeline, so throughput should be essentially flat
while commit latency absorbs the WAN round trip.
"""

from __future__ import annotations

from repro.bench.harness import ScaleProfile, measure
from repro.bench.reporting import ExperimentResult
from repro.config import ClusterConfig
from repro.workloads.microbenchmark import Microbenchmark

MODES = (("none", 1), ("async", 3), ("paxos", 3))


def run(scale: str = "quick", seed: int = 2012, machines: int = 2) -> ExperimentResult:
    profile = ScaleProfile.get(scale)
    result = ExperimentResult(
        experiment="E6 (replication)",
        title="Replication mode vs throughput and latency (WAN ~50ms one-way)",
        headers=("mode", "replicas", "total txn/s", "p50 ms", "p99 ms"),
        notes="paper claim: Paxos-based strong consistency at no throughput cost; "
        "latency grows by ~1 WAN round trip",
    )
    for mode, replicas in MODES:
        workload = Microbenchmark(mp_fraction=0.10, hot_set_size=10000)
        config = ClusterConfig(
            num_partitions=machines,
            num_replicas=replicas,
            replication_mode=mode,
            seed=seed,
        )
        # Closed-loop clients: under Paxos each request is outstanding
        # for ~1 WAN RTT instead of ~1 epoch, so saturating the same
        # worker pool needs proportionally more clients, and the
        # measurement must start after the leader-election transient.
        clients = profile.clients_per_partition
        run_profile = profile
        if mode == "paxos":
            # ~12x more outstanding requests cover the ~12x latency, but
            # cap the base so huge profiles don't flood the epoch queues
            # (offered load beyond saturation only adds queueing delay).
            clients = min(clients, 150) * 12
            run_profile = ScaleProfile(
                profile.name, warmup=max(profile.warmup, 0.5),
                duration=profile.duration,
                clients_per_partition=clients,
                max_machines=profile.max_machines,
            )
        report = measure(workload, config, run_profile, clients_per_partition=clients)
        result.add_row(
            mode,
            replicas,
            report.throughput,
            report.latency_p50 * 1e3,
            report.latency_p99 * 1e3,
        )
    return result


if __name__ == "__main__":
    print(run())
