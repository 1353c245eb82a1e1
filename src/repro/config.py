"""Cluster configuration and the calibrated cost model.

The cost model is the bridge between the simulated cluster and the
paper's hardware: it states how much *worker time* each primitive
operation consumes and what the physical latencies are. It was
calibrated once — so that a single simulated machine sustains roughly
27 k single-partition microbenchmark transactions per second, the
published order of magnitude — and is then held fixed across every
experiment; no per-figure tuning.

Times are in seconds of virtual time throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from repro.errors import ConfigError

# The admission policies that actually bound intake (``"none"`` disables
# admission control); the choices of ``repro chaos --admission``.
ADMISSION_POLICIES = ("queue", "shed", "backpressure")


@dataclass(frozen=True)
class CostModel:
    """Worker-time and device-latency costs of primitive operations."""

    # Per-transaction fixed worker cost (dispatch, context setup).
    txn_base_cpu: float = 80e-6
    # Per-record storage access costs (memory-resident tier).
    read_cpu: float = 8e-6
    write_cpu: float = 8e-6
    # Lock-manager thread cost per lock request / release pair.
    lock_request_cpu: float = 1.5e-6
    # Extra worker cost on each participant of a multipartition
    # transaction (building, serializing and parsing remote-read messages).
    multipartition_overhead_cpu: float = 500e-6
    # Worker cost of serving one incoming remote-read request.
    remote_read_serve_cpu: float = 100e-6
    # Sequencer cost per transaction (batch append, dispatch fan-out).
    sequencer_cpu_per_txn: float = 6e-6
    # Synchronous log force, used by the 2PC baseline at prepare/commit.
    log_force_latency: float = 1e-3
    # Simulated magnetic-disk access latency for cold records (Section 4).
    disk_latency_mean: float = 10e-3
    disk_latency_jitter: float = 2e-3
    disk_parallelism: int = 8
    # Checkpointing: worker cost to serialize one record into a checkpoint.
    checkpoint_record_cpu: float = 1.2e-6

    def validate(self) -> None:
        for name in (
            "txn_base_cpu",
            "read_cpu",
            "write_cpu",
            "lock_request_cpu",
            "multipartition_overhead_cpu",
            "remote_read_serve_cpu",
            "sequencer_cpu_per_txn",
            "log_force_latency",
            "disk_latency_mean",
            "checkpoint_record_cpu",
        ):
            if getattr(self, name) < 0:
                raise ConfigError(f"cost model field {name} must be >= 0")
        if self.disk_parallelism < 1:
            raise ConfigError("disk_parallelism must be >= 1")


@dataclass(frozen=True)
class ClusterConfig:
    """Shape and behaviour of a simulated cluster.

    One *node* hosts one partition of one replica, exactly as in the
    paper's deployment (Figure 1): every node runs a sequencer, a
    scheduler, and a storage partition.
    """

    num_partitions: int = 4
    num_replicas: int = 1
    workers_per_node: int = 8
    # Execution engine driving the cluster (see repro.engines): "core"
    # is Calvin's deterministic scheduler, "baseline" the 2PL+2PC
    # comparison system, "star" the phase-switching engine.
    # repro.engines.build_cluster (and with it the bench harness and
    # the CLI) builds the cluster class the field names; a cluster
    # class constructed directly pins the field to its own engine and
    # re-validates, so cluster.config.engine always names the builder.
    # validate() refuses any field that switches on a feature the
    # engine does not support (repro.engines.UNSUPPORTED).
    engine: str = "core"
    # Lock-manager threads per node. The paper uses one (requests are
    # strictly serialized); sharding the lock table by key preserves
    # determinism per key and lifts the admission ceiling — the
    # optimization explored in the deterministic-DB follow-up work.
    lock_manager_shards: int = 1
    epoch_duration: float = 0.010  # the paper's 10 ms epoch
    # "async" ships batches to peer replicas without waiting;
    # "paxos" runs Multi-Paxos over the replica sites before dispatch;
    # "none" disables replication (single-replica deployments).
    replication_mode: str = "none"
    # Unreplicated durability (paper Section 2): force each epoch's
    # input batch to a local log device before dispatching it. Batches
    # share group-commit flushes, so this costs ~1 log-force of latency
    # and no throughput. Ignored when replication provides durability.
    force_input_log: bool = False
    # WAN one-way latency and bandwidth between replica sites when
    # num_replicas > 1. The LAN inside a site is a topology constant
    # (repro.sim.network.lan_topology: 0.5 ms, 1 Gbps).
    wan_latency: float = 0.05
    wan_bandwidth: float = 12.5e6
    # -- geo topology (see repro.geo and docs/geo.md) ---------------------
    # Named geo-topology preset ("chain", "ring", "mesh", "hub"): one
    # datacenter per replica, WAN links with the latency/bandwidth knobs
    # above, multi-hop routing and fair bandwidth sharing. None keeps
    # the flat point-to-point network (bit-identical event sequences).
    topology: Optional[str] = None
    # Partial replication: per-replica tuples of hosted partitions.
    # None = full replication (every replica hosts every partition).
    # Replica 0 must host everything (it is the system of record that
    # ships writesets for transactions straddling a peer's hosted set).
    partial_hosting: Optional[Tuple[Tuple[int, ...], ...]] = None
    seed: int = 2012
    costs: CostModel = field(default_factory=CostModel)
    # Disk-based storage (Section 4): if True, reads of cold keys go to
    # the simulated disk and the sequencer defers disk-bound transactions
    # by the expected fetch latency while issuing prefetch requests.
    disk_enabled: bool = False
    # Relative error applied to the sequencer's disk-latency estimate;
    # 0.0 = perfect estimation (Section 4 sensitivity knob).
    disk_estimate_error: float = 0.0
    # Admission control in front of each input sequencer (open-loop
    # traffic): "none" disables it entirely (bit-for-bit identical to
    # the pre-admission behaviour); the other policies bound intake with
    # a queue of `admission_queue_capacity` drained at
    # `admission_epoch_budget` transactions per epoch and differ only in
    # what happens to a request that arrives while the queue is full:
    #   "queue"        — tail-drop silently (the client never hears back),
    #   "shed"         — reject immediately (TxnStatus.REJECTED reply),
    #   "backpressure" — reject with a deterministic retry-after hint.
    admission_policy: str = "none"
    admission_queue_capacity: int = 512
    # Max transactions admitted into each sequencing epoch per node;
    # required (>0) whenever admission_policy != "none". Capacity per
    # node is admission_epoch_budget / epoch_duration txns/sec.
    admission_epoch_budget: Optional[int] = None
    # Runtime determinism sanitizer: when True, every Simulator.run of
    # this cluster arms trip wires that raise DeterminismViolation if
    # simulated code touches the process-global RNG, the wall clock, or
    # host entropy (see repro.analysis.sanitizer). Zero effect on the
    # simulation itself — same seed produces bit-identical digests with
    # the flag on or off.
    sanitize: bool = False
    # Runtime footprint auditor: when True, replica-0 schedulers record
    # actual per-procedure key accesses and report declared-but-unused
    # (over-declared) and under-declared keys via audit.footprint.*
    # metrics (see repro.analysis.auditor). Pure bookkeeping — trace
    # digests are bit-identical with the flag on or off.
    audit_footprints: bool = False
    # Named fault profile (see repro.faults.profiles.FAULT_PROFILES) the
    # cluster instantiates at construction; None = no fault injection.
    fault_profile: Optional[str] = None
    # Virtual-time horizon the profile's schedule is stretched over —
    # should cover the measured run so every fault fires and heals.
    fault_horizon: float = 2.0
    # -- elastic reconfiguration (see repro.reconfig) ---------------------
    # Number of initially active partitions; None = every partition is
    # active from the start. When set below num_partitions, the
    # remaining partitions are pre-provisioned spares: their nodes are
    # built and their schedulers follow the epoch stream from epoch 0,
    # but their sequencers stay dormant (no epoch batches, no client
    # input) until ClusterAdmin.add_node arms a join epoch.
    active_partitions: Optional[int] = None

    def validate(self) -> None:
        if self.num_partitions < 1:
            raise ConfigError("num_partitions must be >= 1")
        if self.num_replicas < 1:
            raise ConfigError("num_replicas must be >= 1")
        if self.workers_per_node < 1:
            raise ConfigError("workers_per_node must be >= 1")
        if self.lock_manager_shards < 1:
            raise ConfigError("lock_manager_shards must be >= 1")
        if self.epoch_duration <= 0:
            raise ConfigError("epoch_duration must be positive")
        if self.replication_mode not in ("none", "async", "paxos"):
            raise ConfigError(f"unknown replication mode: {self.replication_mode!r}")
        if self.replication_mode == "none" and self.num_replicas > 1:
            raise ConfigError("multi-replica clusters need replication_mode async|paxos")
        if self.replication_mode == "paxos" and self.num_replicas < 2:
            raise ConfigError("paxos replication needs at least 2 replicas")
        if self.admission_policy not in ("none",) + ADMISSION_POLICIES:
            raise ConfigError(
                f"unknown admission policy: {self.admission_policy!r}"
            )
        if self.admission_policy != "none":
            if self.admission_epoch_budget is None or self.admission_epoch_budget < 1:
                raise ConfigError(
                    "admission_policy needs admission_epoch_budget >= 1"
                )
            if self.admission_queue_capacity < 1:
                raise ConfigError("admission_queue_capacity must be >= 1")
        if not 0.0 <= self.disk_estimate_error <= 1.0:
            raise ConfigError("disk_estimate_error must be in [0, 1]")
        if self.fault_profile is not None:
            # Imported here: repro.faults imports this module.
            from repro.faults.profiles import FAULT_PROFILES

            if self.fault_profile not in FAULT_PROFILES:
                raise ConfigError(
                    f"unknown fault profile {self.fault_profile!r}; "
                    f"known: {sorted(FAULT_PROFILES)}"
                )
        if self.fault_horizon <= 0:
            raise ConfigError("fault_horizon must be positive")
        if self.topology is not None:
            # Imported lazily: repro.geo.presets imports this module.
            from repro.geo.presets import GEO_PRESETS

            if self.topology not in GEO_PRESETS:
                raise ConfigError(
                    f"unknown topology preset {self.topology!r}; "
                    f"known: {sorted(GEO_PRESETS)}"
                )
        if self.partial_hosting is not None:
            hosting = self.partial_hosting
            if len(hosting) != self.num_replicas:
                raise ConfigError(
                    "partial_hosting needs one partition tuple per replica "
                    f"(got {len(hosting)} for {self.num_replicas} replicas)"
                )
            for replica, hosted in enumerate(hosting):
                if not hosted:
                    raise ConfigError(
                        f"partial_hosting: replica {replica} hosts no partitions"
                    )
                if tuple(sorted(set(hosted))) != tuple(hosted):
                    raise ConfigError(
                        f"partial_hosting: replica {replica}'s partitions must "
                        "be sorted and unique"
                    )
                for partition in hosted:
                    if not 0 <= partition < self.num_partitions:
                        raise ConfigError(
                            f"partial_hosting: replica {replica} hosts unknown "
                            f"partition {partition}"
                        )
            if tuple(hosting[0]) != tuple(range(self.num_partitions)):
                raise ConfigError(
                    "partial_hosting: replica 0 must host every partition "
                    "(it ships writesets for straddling transactions)"
                )
            if self.num_replicas < 2:
                raise ConfigError(
                    "partial_hosting needs num_replicas >= 2 (replica 0 "
                    "already hosts everything)"
                )
        if self.active_partitions is not None:
            if not 1 <= self.active_partitions <= self.num_partitions:
                raise ConfigError(
                    "active_partitions must be in [1, num_partitions]"
                )
        # Imported lazily: repro.engines imports this module.
        from repro.engines import ENGINES, features_of, require_all

        if self.engine not in ENGINES:
            raise ConfigError(
                f"unknown engine {self.engine!r}; known: {sorted(ENGINES)}"
            )
        require_all(self.engine, features_of(self))
        self.costs.validate()

    @property
    def num_nodes(self) -> int:
        """Total nodes across all replicas."""
        return self.num_partitions * self.num_replicas

    def with_changes(self, **changes) -> "ClusterConfig":
        """A copy of this config with ``changes`` applied and validated."""
        updated = replace(self, **changes)
        updated.validate()
        return updated


DEFAULT_CONFIG = ClusterConfig()
