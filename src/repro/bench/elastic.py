"""Elastic reconfiguration sweep: ``repro bench elastic``.

Drives a half-active cluster (spare partitions provisioned but
dormant) with open-loop traffic and exercises the control plane
mid-run: splitting a hot partition onto a spare, retiring an origin,
and letting the autoscaler close the loop from admission saturation
signals to those same actions. Each scenario reports throughput and
tail latency around the resize plus a **shape digest** — a SHA-256
over the merged input log, the final state, and the control-plane
event list — so the whole sweep is a determinism oracle: the same
seed reproduces every digest bit-for-bit, serial or fanned across
worker processes with ``--jobs``.
"""

from __future__ import annotations

import hashlib
from typing import Optional, Tuple

from repro.bench.harness import ScaleProfile
from repro.bench.parallel import sweep
from repro.bench.reporting import ExperimentResult
from repro.config import ClusterConfig
from repro.core.cluster import CalvinCluster
from repro.core.traffic import ClientProfile
from repro.errors import ConfigError
from repro.reconfig import AutoscalePolicy, Autoscaler, ClusterAdmin
from repro.workloads.microbenchmark import Microbenchmark

# Same admission budget as the saturation sweep: the knee position is
# exact, so "hot" is a precise statement about the intake queue.
EPOCH_BUDGET = 20
_CLIENTS_PER_PARTITION = 4
# Offered load as a fraction of one origin's admission capacity —
# comfortably past the knee, so queues build and the autoscaler sees
# real saturation signals.
_OVERLOAD = 1.3

SCENARIOS = ("static", "split", "resize", "autoscale")


def shape_digest(cluster) -> str:
    """SHA-256 over (input log, final state, control-plane events)."""
    digest = hashlib.sha256()
    for entry in cluster.merged_log():
        digest.update(
            repr(
                (entry.epoch, entry.origin_partition,
                 tuple(txn.txn_id for txn in entry.txns))
            ).encode()
        )
    state = cluster.final_state()
    for key in sorted(state, key=repr):
        digest.update(repr((key, state[key])).encode())
    admin = getattr(cluster, "reconfig_admin", None)
    if admin is not None:
        for event in admin.events:
            digest.update(repr(event).encode())
    return digest.hexdigest()


def _cell(
    scenario: str,
    scale: str,
    seed: int,
    partitions: int,
    policy: str,
) -> Tuple:
    """One scenario: fresh half-active cluster, resize mid-window."""
    profile = ScaleProfile.get(scale)
    active = max(2, partitions // 2)
    config = ClusterConfig(
        num_partitions=partitions,
        seed=seed,
        active_partitions=active,
        admission_policy=policy,
        admission_epoch_budget=EPOCH_BUDGET,
        admission_queue_capacity=2 * EPOCH_BUDGET,
    )
    workload = Microbenchmark(
        mp_fraction=0.1, hot_set_size=200, cold_set_size=200
    )
    cluster = CalvinCluster(config, workload=workload, record_history=False)
    cluster.load_workload_data()
    admin = ClusterAdmin(cluster)

    total = profile.warmup + profile.duration
    capacity = EPOCH_BUDGET / config.epoch_duration
    rate = _OVERLOAD * capacity / _CLIENTS_PER_PARTITION
    cluster.add_clients(
        ClientProfile(
            per_partition=_CLIENTS_PER_PARTITION,
            mode="open",
            rate=rate,
            max_txns=max(1, int(rate * total)),
        )
    )

    sim = cluster.sim
    act1 = profile.warmup
    act2 = profile.warmup + profile.duration / 2
    if scenario == "split":
        sim.schedule_at(act1, admin.split, 0, 0.5)
    elif scenario == "resize":
        sim.schedule_at(act1, admin.split, 0, 0.5)
        sim.schedule_at(act2, admin.remove_node, 1)
    elif scenario == "autoscale":
        scaler = Autoscaler(
            admin,
            AutoscalePolicy(
                interval=4 * config.epoch_duration,
                scale_up_queue_depth=EPOCH_BUDGET // 2,
                cooldown=profile.duration / 2,
                min_origins=active,
            ),
        )
        scaler.start()
    elif scenario != "static":
        raise ConfigError(f"unknown elastic scenario {scenario!r}")

    report = cluster.run(duration=profile.duration, warmup=profile.warmup)
    cluster.quiesce()

    latency = cluster.metrics.latency
    origins = ",".join(str(origin) for origin in admin.current_origins())
    return (
        scenario,
        report.committed,
        report.throughput,
        latency.percentile(50) * 1e3,
        latency.percentile(99) * 1e3,
        admin.keys_moved,
        origins,
        shape_digest(cluster),
    )


def run(
    scale: str = "quick",
    seed: int = 2012,
    partitions: int = 4,
    policy: str = "backpressure",
    jobs: Optional[int] = None,
) -> Tuple[ExperimentResult, str]:
    """Run every scenario; return (table, digest over all scenarios)."""
    ScaleProfile.get(scale)  # validate before any cell runs
    result = ExperimentResult(
        experiment="elastic",
        title=(
            f"elastic reconfiguration under open-loop overload — "
            f"{partitions} partitions ({max(2, partitions // 2)} active), "
            f"policy={policy}"
        ),
        headers=(
            "scenario",
            "committed",
            "committed/s",
            "p50_ms",
            "p99_ms",
            "keys_moved",
            "origins_after",
            "digest",
        ),
    )
    params = [
        (scenario, scale, seed, partitions, policy) for scenario in SCENARIOS
    ]
    combined = hashlib.sha256()
    for row in sweep(_cell, params, jobs=jobs):
        combined.update(row[-1].encode())
        result.add_row(*row[:-1], row[-1][:16])
    result.notes = (
        "each scenario rebuilds the cluster from the same seed; the digest "
        "column hashes (input log, final state, reconfig events), so any "
        "routing or migration nondeterminism changes it"
    )
    return result, combined.hexdigest()
