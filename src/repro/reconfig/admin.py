"""The unified control plane: one facade for every cluster-shape change.

:class:`ClusterAdmin` is the *only* public surface for elastic
reconfiguration. Every action — splitting a hot partition, merging a
cold one away, activating a pre-provisioned spare, retiring a node —
reduces to the same deterministic mechanism:

1. Pick a **flip epoch** ``F`` a couple of epochs ahead of the present.
2. Arm the catalog's epoch-keyed router: from ``F`` on, the moving keys
   route to their destination, and (for join/leave) the active-origin
   set changes. Routing is a pure function of the epoch number, so
   every replica flips identically without any cross-replica handshake.
3. Inject a **migration transaction** that leads epoch ``F`` in the
   global serial order. It write-locks the moving range on both sides,
   copies the data source → destination, and purges the source — all
   through the ordinary sequenced-execution machinery, so the move is
   serializable by construction, survives crashes via the same input
   log, and replays bit-identically.

Nothing here races the data plane: planning reads sequenced state, and
every effect is keyed to an epoch boundary strictly in the future.
"""

from __future__ import annotations

from typing import Dict, List, Optional, TYPE_CHECKING

from repro.engines import features_of, require_all
from repro.errors import ConfigError
from repro.obs import CAT_NODE, SpanKind
from repro.partition.catalog import MIGRATION_PROC, NodeId, node_address
from repro.reconfig.plan import (
    KIND_JOIN,
    KIND_LEAVE,
    KIND_MERGE,
    KIND_SPLIT,
    MigrationPlan,
    ReconfigEvent,
)
from repro.txn.transaction import Transaction

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.cluster import CalvinCluster

# Migration transactions live in their own (negative) id space so the
# control plane never perturbs the client-side txn-id counter — a run
# with an idle admin stays bit-identical to one without an admin.
_MIGRATION_TXN_BASE = 1000

# Epochs of lead time between an admin call and its flip epoch: the
# flip must be strictly in the future of every sequencer's current
# epoch so the config txn and the routing override land atomically.
_FLIP_LEAD = 2


class ClusterAdmin:
    """Control-plane facade over one :class:`CalvinCluster`.

    All methods are deterministic functions of (cluster state, sim
    time, arguments): the same seed and the same call sequence produce
    the same plans, the same flip epochs, and the same trace digests.
    """

    def __init__(self, cluster: "CalvinCluster"):
        config = cluster.config
        require_all(config.engine, {"reconfig": None, **features_of(config)})
        if getattr(cluster, "reconfig_admin", None) is not None:
            raise ConfigError("cluster already has a ClusterAdmin")
        self.cluster = cluster
        self.catalog = cluster.catalog
        cluster.reconfig_admin = self
        self._migration_counter = 0
        self._pending_until = 0.0
        self.plans: List[MigrationPlan] = []
        self.events: List[ReconfigEvent] = []
        # Tallies behind the reconfig.* gauges.
        self.migrations = 0
        self.keys_moved = 0
        self.joins = 0
        self.leaves = 0
        registry = cluster.metrics_registry
        registry.gauge("reconfig.migrations", lambda: self.migrations)
        registry.gauge("reconfig.keys_moved", lambda: self.keys_moved)
        registry.gauge("reconfig.joins", lambda: self.joins)
        registry.gauge("reconfig.leaves", lambda: self.leaves)
        registry.gauge("reconfig.events", lambda: len(self.events))

    # -- state ------------------------------------------------------------

    @property
    def quiesced(self) -> bool:
        """True once every scheduled control-plane effect has landed."""
        if any(
            node.sequencer.pending_config_txns
            for node in self.cluster.nodes.values()
        ):
            return False
        return self.cluster.sim.now >= self._pending_until

    def current_origins(self):
        """Active input partitions for the epoch covering *now*."""
        return self.catalog.origins_at(self.cluster.current_epoch())

    def spare_partitions(self) -> List[int]:
        """Provisioned-but-dormant partitions, lowest first."""
        return [
            partition
            for partition in range(self.catalog.num_partitions)
            if self.cluster.node(0, partition).sequencer.dormant
        ]

    # -- planning ---------------------------------------------------------

    def plan(
        self,
        source: int,
        fraction: float = 0.5,
        dest: Optional[int] = None,
        at_epoch: Optional[int] = None,
    ) -> MigrationPlan:
        """Compute (without executing) the migration a :meth:`split`
        with the same arguments would run right now.

        Pure: consumes no ids, arms nothing. The keys are the tail
        ``fraction`` of the source store in ``repr`` order, which is
        the same in every process (``hash`` order is not).
        """
        return self._plan(
            source, fraction, dest, at_epoch, self._migration_counter + 1
        )

    def _plan(
        self,
        source: int,
        fraction: float,
        dest: Optional[int],
        at_epoch: Optional[int],
        migration_id: int,
    ) -> MigrationPlan:
        if not 0.0 < fraction <= 1.0:
            raise ConfigError(f"split fraction must be in (0, 1] (got {fraction})")
        flip = self._resolve_epoch(at_epoch)
        origins = self.catalog.origins_at(flip)
        if source not in origins:
            raise ConfigError(f"partition {source} is not an active origin")
        if dest is None:
            dest = self._default_dest(source, origins)
        elif dest == source:
            raise ConfigError("split source and destination coincide")
        keys = sorted(self.cluster.node(0, source).store.keys(), key=repr)
        moving = keys[len(keys) - int(len(keys) * fraction):]
        if not moving:
            raise ConfigError(f"partition {source} has no keys to move")
        return MigrationPlan(
            migration_id=migration_id,
            source=source,
            dest=dest,
            keys=tuple(moving),
            flip_epoch=flip,
            txn_id=-(_MIGRATION_TXN_BASE + migration_id),
        )

    def _resolve_epoch(self, at_epoch: Optional[int]) -> int:
        floor = self.cluster.current_epoch() + _FLIP_LEAD
        if at_epoch is None:
            return floor
        if at_epoch < floor:
            raise ConfigError(
                f"epoch {at_epoch} is too soon; the earliest safe flip "
                f"epoch is {floor}"
            )
        return at_epoch

    def _default_dest(self, source: int, origins) -> int:
        # Prefer activating a spare (elastic growth); otherwise shed
        # onto the least-populated active origin, lowest index first.
        spares = self.spare_partitions()
        if spares:
            return spares[0]
        candidates = [origin for origin in origins if origin != source]
        if not candidates:
            raise ConfigError("no destination available for the split")
        return min(
            candidates,
            key=lambda p: (len(self.cluster.node(0, p).store), p),
        )

    # -- actions ----------------------------------------------------------

    def split(
        self,
        source: int,
        fraction: float = 0.5,
        dest: Optional[int] = None,
        at_epoch: Optional[int] = None,
        reason: str = "",
    ) -> MigrationPlan:
        """Move the tail ``fraction`` of ``source``'s keys to ``dest``.

        When ``dest`` is a dormant spare (the default when one exists)
        it joins the active-origin set at the same flip epoch, so the
        split both re-shards the data and grows the cluster.
        """
        self._migration_counter += 1
        plan = self._plan(source, fraction, dest, at_epoch, self._migration_counter)
        if plan.dest in self.spare_partitions():
            self._activate(plan.dest, plan.flip_epoch, reason or "split target")
        self._execute(plan, KIND_SPLIT, reason)
        return plan

    def merge(
        self,
        source: int,
        dest: int,
        at_epoch: Optional[int] = None,
        reason: str = "",
    ) -> MigrationPlan:
        """Move *all* of ``source``'s keys into ``dest``.

        The source origin stays active (it still sequences input);
        :meth:`remove_node` is merge + retire in one action.
        """
        self._migration_counter += 1
        plan = self._plan(source, 1.0, dest, at_epoch, self._migration_counter)
        self._execute(plan, KIND_MERGE, reason)
        return plan

    def add_node(
        self,
        partition: Optional[int] = None,
        at_epoch: Optional[int] = None,
        reason: str = "",
    ) -> int:
        """Activate a dormant spare as an input origin at the flip epoch.

        The spare's sequencer wakes in lock-step with the established
        ones (its first batch is the flip epoch), and every scheduler's
        epoch barrier starts expecting its sub-batches from exactly
        that epoch on. Returns the activated partition.
        """
        spares = self.spare_partitions()
        if partition is None:
            if not spares:
                raise ConfigError("no spare partition available to add")
            partition = spares[0]
        elif partition not in spares:
            raise ConfigError(f"partition {partition} is not a dormant spare")
        flip = self._resolve_epoch(at_epoch)
        self._activate(partition, flip, reason)
        return partition

    def remove_node(
        self,
        partition: int,
        dest: Optional[int] = None,
        at_epoch: Optional[int] = None,
        reason: str = "",
    ) -> Optional[MigrationPlan]:
        """Retire an origin: migrate its keys away, stop its sequencer.

        The keys move at flip epoch ``F``; the origin cuts its last
        batch at ``F`` and retires at ``F + 1``, forwarding any input
        still buffered (or queued in admission) to the destination
        origin. Clients homed on the retiring origin are redirected at
        the retirement instant. Returns the migration plan (None when
        the partition held no keys).
        """
        flip = self._resolve_epoch(at_epoch)
        origins = self.catalog.origins_at(flip)
        if partition not in origins:
            raise ConfigError(f"partition {partition} is not an active origin")
        if len(origins) == 1:
            raise ConfigError("cannot remove the last active origin")
        if dest is None:
            dest = self._default_removal_dest(partition, origins)
        elif dest == partition or dest not in origins:
            raise ConfigError(f"invalid removal destination {dest}")

        plan = None
        if len(self.cluster.node(0, partition).store):
            self._migration_counter += 1
            plan = self._plan(partition, 1.0, dest, flip, self._migration_counter)
            self._execute(plan, KIND_LEAVE, reason, count_migration_only=True)

        retire_epoch = flip + 1
        remaining = tuple(o for o in origins if o != partition)
        self.catalog.arm_origin_change(retire_epoch, remaining)
        successor = node_address(NodeId(0, dest))
        self.cluster.node(0, partition).sequencer.retire_at(retire_epoch, successor)
        sim = self.cluster.sim
        retire_time = retire_epoch * self.cluster.config.epoch_duration
        sim.schedule_at(retire_time, self._redirect_clients, partition, dest)
        self._note_pending(retire_epoch)
        self.leaves += 1
        self._record_event(
            ReconfigEvent(
                kind=KIND_LEAVE,
                epoch=retire_epoch,
                source=partition,
                dest=dest,
                keys_moved=plan.num_keys if plan else 0,
                migration_id=plan.migration_id if plan else None,
                reason=reason,
            )
        )
        return plan

    def _default_removal_dest(self, partition: int, origins) -> int:
        candidates = [origin for origin in origins if origin != partition]
        return min(
            candidates,
            key=lambda p: (len(self.cluster.node(0, p).store), p),
        )

    # -- mechanism --------------------------------------------------------

    def _activate(self, partition: int, flip: int, reason: str) -> None:
        origins = self.catalog.origins_at(flip)
        self.catalog.arm_origin_change(flip, origins + (partition,))
        self.cluster.node(0, partition).sequencer.start_at_epoch(flip)
        self._note_pending(flip)
        self.joins += 1
        self._record_event(
            ReconfigEvent(kind=KIND_JOIN, epoch=flip, dest=partition, reason=reason)
        )

    def _execute(
        self,
        plan: MigrationPlan,
        kind: str,
        reason: str,
        count_migration_only: bool = False,
    ) -> None:
        """Arm the router and inject the sequenced migration for ``plan``."""
        catalog = self.catalog
        catalog.arm_override(
            plan.flip_epoch, {key: plan.dest for key in plan.keys}
        )
        txn = Transaction.create(
            txn_id=plan.txn_id,
            procedure=MIGRATION_PROC,
            args=(plan.migration_id, plan.source, plan.dest),
            read_set=plan.keys,
            write_set=plan.keys,
            origin_partition=plan.source,
        )
        # The migration must lead its epoch in the *global* serial
        # order, so it joins the batch of the lowest-numbered origin
        # active at the flip epoch.
        coordinator = min(catalog.origins_at(plan.flip_epoch))
        sequencer = self.cluster.node(0, coordinator).sequencer
        sequencer.register_config_txn(plan.flip_epoch, txn)
        self._note_pending(plan.flip_epoch)
        self.plans.append(plan)
        self.migrations += 1
        self.keys_moved += plan.num_keys
        if not count_migration_only:
            self._record_event(
                ReconfigEvent(
                    kind=kind,
                    epoch=plan.flip_epoch,
                    source=plan.source,
                    dest=plan.dest,
                    keys_moved=plan.num_keys,
                    migration_id=plan.migration_id,
                    reason=reason,
                )
            )

    def _note_pending(self, effect_epoch: int) -> None:
        # Effects keyed to epoch E land by the tick cutting E + 1; the
        # extra epoch covers the retire hand-off and migration apply.
        horizon = (effect_epoch + 2) * self.cluster.config.epoch_duration
        if horizon > self._pending_until:
            self._pending_until = horizon

    def _redirect_clients(self, partition: int, dest: int) -> None:
        for client in self.cluster.clients:
            if client.partition == partition:
                client.redirect(dest)

    def _record_event(self, event: ReconfigEvent) -> None:
        self.events.append(event)
        tracer = self.cluster.tracer
        if tracer.enabled:
            now = self.cluster.sim.now
            tracer.record(
                SpanKind.RECONFIG,
                now,
                now,
                cat=CAT_NODE,
                replica=0,
                partition=event.source if event.source is not None else event.dest,
                detail=(
                    f"{event.kind} p{event.source}->p{event.dest} "
                    f"@e{event.epoch} ({event.keys_moved} keys)"
                ),
            )

    # -- observability ----------------------------------------------------

    def describe(self) -> Dict[str, object]:
        """A summary of control-plane activity (CLI/benchmark output)."""
        return {
            "migrations": self.migrations,
            "keys_moved": self.keys_moved,
            "joins": self.joins,
            "leaves": self.leaves,
            "origins": list(self.current_origins()),
            "spares": self.spare_partitions(),
            "events": [event.kind for event in self.events],
        }
