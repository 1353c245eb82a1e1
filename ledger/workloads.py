"""The five ledger workloads, defined here and nowhere else.

Each workload fixes a cluster shape, a client population and a virtual
measurement window. Everything random comes from the simulator's seeded
RNG streams, so a seed fixes the simulated work exactly. README.md
records why each workload exists and which layers it stresses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro import (
    CalvinCluster,
    ClientProfile,
    ClusterAdmin,
    ClusterConfig,
    Microbenchmark,
    TpccWorkload,
    Workload,
)

# Virtual seconds run before the timed window opens: queues fill, every
# client has a request in flight and lazily built caches exist.
WARMUP = 0.2
# Virtual window of the verify pass (clients are bounded, so it ends
# earlier when they run out of work and quiesce drains the rest).
VERIFY_WINDOW = 0.3

# open-elastic offers 1.3x the admission capacity of its two initial
# origins: 20 txns/epoch at 10 ms epochs is 2000 txn/s per origin,
# offered by 4 Poisson clients per origin at this rate each. (At 1.1x the excess over
# capacity is within the Poisson noise of the arrivals, and the retry
# traffic, most of this workload's events, swings 15 % between seeds.)
_OPEN_RATE = 650.0
# Control-plane actions of open-elastic, as fractions of the window.
SPLIT_AT = 0.25
REMOVE_AT = 0.60


@dataclass(frozen=True)
class WorkloadSpec:
    """One benchmark workload: shape, traffic and window."""

    name: str
    why: str
    loop: str                       # "closed" | "open"
    window: float                   # virtual seconds in the timed window
    smoke_window: float             # the same for --smoke
    workload: Callable[[], Workload]
    config: Callable[[int], ClusterConfig]
    clients_per_partition: int
    # Per-client transaction bound of the verify pass (closed loop).
    verify_txns: int = 10
    reconfig: bool = False

    def profile(self, window: float, verify: bool = False) -> ClientProfile:
        """The client population for a run of ``window`` virtual seconds."""
        if self.loop == "open":
            # max_txns bounds arrivals to the run's horizon, which is
            # what lets the verify pass quiesce.
            return ClientProfile(
                per_partition=self.clients_per_partition,
                mode="open",
                rate=_OPEN_RATE,
                retry_rejected=True,
                max_txns=int(_OPEN_RATE * (WARMUP + window)),
            )
        return ClientProfile(
            per_partition=self.clients_per_partition,
            max_txns=self.verify_txns if verify else None,
        )


def _flat(partitions: int) -> Callable[[int], ClusterConfig]:
    return lambda seed: ClusterConfig(num_partitions=partitions, seed=seed)


SPECS: Tuple[WorkloadSpec, ...] = (
    WorkloadSpec(
        name="micro-low",
        why=(
            "flat feature-off hot path: kernel dispatch, executor generator, flat "
            "network; sole-holder lock path, trivial logic"
        ),
        loop="closed",
        window=1.0,
        smoke_window=0.15,
        workload=lambda: Microbenchmark(
            mp_fraction=0.0, hot_set_size=10000, cold_set_size=10000
        ),
        config=_flat(2),
        clients_per_partition=100,
    ),
    WorkloadSpec(
        name="micro-high",
        why=(
            "same code as micro-low under contention: queued lock path (hot set of "
            "10), remote-read rounds, 50% multipartition traffic"
        ),
        loop="closed",
        window=2.0,
        smoke_window=0.3,
        workload=lambda: Microbenchmark(
            mp_fraction=0.5, hot_set_size=10, cold_set_size=10000
        ),
        config=_flat(2),
        clients_per_partition=100,
    ),
    WorkloadSpec(
        name="tpcc-4p",
        why=(
            "TPC-C New Order, 10% remote: procedure logic, workload generation, txn "
            "context, key hashing and many-key lock requests dominate"
        ),
        loop="closed",
        window=0.2,
        smoke_window=0.05,
        workload=lambda: TpccWorkload(mix={"new_order": 1.0}, remote_fraction=0.10),
        config=_flat(4),
        clients_per_partition=50,
        verify_txns=5,
    ),
    WorkloadSpec(
        name="geo-paxos-3r",
        why=(
            "only path through Paxos, geo store-and-forward routing, partial hosting "
            "and writeset shipping; sim latency is WAN-bound"
        ),
        loop="closed",
        window=0.4,
        smoke_window=0.1,
        workload=lambda: Microbenchmark(
            mp_fraction=0.3, hot_set_size=10000, cold_set_size=10000
        ),
        config=lambda seed: ClusterConfig(
            num_partitions=2,
            num_replicas=3,
            replication_mode="paxos",
            topology="ring",
            wan_latency=0.01,
            wan_bandwidth=12.5e6,
            partial_hosting=((0, 1), (0,), (1,)),
            seed=seed,
        ),
        clients_per_partition=300,
        verify_txns=3,
    ),
    WorkloadSpec(
        name="open-elastic",
        why=(
            "open loop at 1.3x admission capacity with a split and a node removal "
            "mid-window: admission, retry traffic, migration, client redirect"
        ),
        loop="open",
        window=1.5,
        smoke_window=0.4,
        workload=lambda: Microbenchmark(
            mp_fraction=0.1, hot_set_size=1000, cold_set_size=10000
        ),
        config=lambda seed: ClusterConfig(
            num_partitions=4,
            active_partitions=2,
            admission_policy="backpressure",
            admission_epoch_budget=20,
            admission_queue_capacity=40,
            seed=seed,
        ),
        clients_per_partition=4,
        reconfig=True,
    ),
)

BY_NAME: Dict[str, WorkloadSpec] = {spec.name: spec for spec in SPECS}


def build(
    spec: WorkloadSpec, seed: int, window: float, verify: bool = False
) -> Tuple[CalvinCluster, Optional[ClusterAdmin]]:
    """Construct, load, attach clients and start; nothing has run yet.

    ``verify`` builds the variant the correctness checkers need:
    history recorded and clients bounded so the cluster can quiesce.
    """
    cluster = CalvinCluster(
        spec.config(seed), workload=spec.workload(), record_history=verify
    )
    cluster.load_workload_data()
    admin = None
    if spec.reconfig:
        admin = ClusterAdmin(cluster)
        cluster.sim.schedule_at(WARMUP + SPLIT_AT * window, admin.split, 0, 0.5)
        cluster.sim.schedule_at(WARMUP + REMOVE_AT * window, admin.remove_node, 1)
    cluster.add_clients(spec.profile(window, verify))
    cluster.start()
    for client in cluster.clients:
        client.start()
    return cluster, admin
