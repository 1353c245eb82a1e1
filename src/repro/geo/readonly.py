"""Replica-local read-only transactions (deferred-update style scale-out).

Calvin's determinism means any replica's committed prefix is a
transactionally consistent snapshot, so read-only transactions never
need sequencing: a client reads from the *closest* replica hosting all
of its read partitions, entirely off the write path. The price is
staleness — a replica lags the input site by however many epochs are
still crossing the WAN — which the client measures from the epoch
watermark each serving node stamps into its reply.

:class:`ReadOnlyClient` is closed-loop and mirrors the interface the
cluster's ``quiesce``/``run`` machinery expects from clients
(``start``/``idle``/``finished``/``submitted``/``max_txns``), so it
rides the normal lifecycle. Observations land in the cluster metrics
registry: ``geo.ro.latency_ms`` and ``geo.ro.staleness_epochs``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.errors import ConfigError
from repro.net.messages import ReadOnlyQuery, ReadOnlyReply
from repro.partition.catalog import NodeId, node_address
from repro.partition.partitioner import Key

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.cluster import CalvinCluster


def readonly_client_address(index: int) -> Tuple[str, int]:
    return ("ro-client", index)


class ReadOnlyClient:
    """One outstanding read-only query at a time, against the closest
    eligible replica."""

    def __init__(
        self,
        cluster: "CalvinCluster",
        index: int,
        keys_per_query: int = 4,
        partitions_per_query: int = 1,
        max_txns: Optional[int] = None,
        datacenter: int = 0,
        replica_local: bool = True,
    ):
        if partitions_per_query < 1:
            raise ConfigError("partitions_per_query must be >= 1")
        if keys_per_query < partitions_per_query:
            raise ConfigError("keys_per_query must cover every queried partition")
        self.cluster = cluster
        self.index = index
        self.keys_per_query = keys_per_query
        self.partitions_per_query = min(
            partitions_per_query, cluster.config.num_partitions
        )
        self.max_txns = max_txns
        self.datacenter = datacenter
        # replica_local=False forces every read to the input site
        # (replica 0) — the baseline replica-local reads are measured
        # against.
        self.replica_local = replica_local
        self.address = readonly_client_address(index)
        self.rng = cluster.rngs.stream("readonly", index)
        self.submitted = 0
        self.completed = 0
        self.local_replica_hits = 0
        self._query_counter = 0
        self._inflight: Optional[int] = None
        self._started = False
        self._expected: Dict[int, Dict] = {}
        self._started_at = 0.0
        self._latency = cluster.metrics_registry.histogram("geo.ro.latency_ms")
        self._staleness = cluster.metrics_registry.histogram("geo.ro.staleness_epochs")
        cluster.network.register(self.address, self._on_message)
        if cluster.network.geo is not None:
            cluster.network.place(self.address, datacenter)

    # -- client lifecycle (the surface quiesce()/run() relies on) ----------

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self._submit()

    @property
    def finished(self) -> bool:
        return self.max_txns is not None and self.completed >= self.max_txns

    @property
    def idle(self) -> bool:
        return self._inflight is None and self.finished

    # -- querying ----------------------------------------------------------

    def _pick_keys(self) -> Dict[int, List[Key]]:
        """Deterministically sample hot keys grouped by partition."""
        workload = self.cluster.workload
        hot = getattr(workload, "hot_set_size", None)
        if hot is None:
            raise ConfigError(
                "ReadOnlyClient needs a workload with a per-partition hot set "
                f"(got {type(workload).__name__})"
            )
        num_partitions = self.cluster.config.num_partitions
        first = self.rng.randrange(num_partitions)
        partitions = [
            (first + offset) % num_partitions
            for offset in range(self.partitions_per_query)
        ]
        per_partition: Dict[int, List[Key]] = {p: [] for p in sorted(partitions)}
        for i in range(self.keys_per_query):
            partition = partitions[i % len(partitions)]
            per_partition[partition].append(
                ("hot", partition, self.rng.randrange(hot))
            )
        return per_partition

    def _choose_replica(self, partitions: Sequence[int]) -> int:
        """The closest replica hosting *all* queried partitions; ties go
        to the lowest replica id. Replica 0 hosts everything, so an
        eligible replica always exists."""
        cluster = self.cluster
        catalog = cluster.catalog
        geo = cluster.network.geo
        site_of = cluster.network.topology.site_of
        if not self.replica_local:
            return 0
        candidates: List[Tuple[float, int]] = []
        for replica in range(catalog.num_replicas):
            if not all(catalog.is_hosted(replica, p) for p in partitions):
                continue
            if geo is None:
                cost = 0.0 if replica == 0 else 1.0
            else:
                client_dc = site_of(self.address)
                cost = max(
                    geo.path_latency(client_dc, site_of(("node", replica, partition)))
                    for partition in partitions
                )
            candidates.append((cost, replica))
        return min(candidates)[1]

    def _submit(self) -> None:
        if self.finished:
            return
        per_partition = self._pick_keys()
        partitions = sorted(per_partition)
        replica = self._choose_replica(partitions)
        if replica != 0:
            self.local_replica_hits += 1
        self._query_counter += 1
        query_id = self._query_counter
        self._inflight = query_id
        self._expected[query_id] = {
            "pending": set(partitions),
            "min_epoch": None,
        }
        self._started_at = self.cluster.sim.now
        self.submitted += 1
        for partition in partitions:
            query = ReadOnlyQuery(query_id, tuple(per_partition[partition]))
            target = node_address(NodeId(replica, partition))
            self.cluster.network.send(
                self.address, target, query, query.size_estimate()
            )

    def _on_message(self, src: Any, message: Any) -> None:
        assert isinstance(message, ReadOnlyReply), f"ro-client got {message!r}"
        state = self._expected.get(message.query_id)
        if state is None or message.query_id != self._inflight:
            return  # stale reply for an already-completed query
        state["pending"].discard(message.from_partition)
        if state["min_epoch"] is None or message.epoch < state["min_epoch"]:
            state["min_epoch"] = message.epoch
        if state["pending"]:
            return
        del self._expected[message.query_id]
        self._inflight = None
        self.completed += 1
        cluster = self.cluster
        now = cluster.sim.now
        self._latency.add((now - self._started_at) * 1e3)
        # Staleness bound in epochs: how far the serving replica's
        # watermark can lag the input site's current epoch.
        current_epoch = int(now / cluster.config.epoch_duration)
        self._staleness.add(max(0, current_epoch - state["min_epoch"]))
        self._submit()


def add_read_clients(
    cluster: "CalvinCluster",
    count: int,
    max_txns: Optional[int] = None,
    keys_per_query: int = 4,
    partitions_per_query: int = 1,
    spread: bool = True,
    replica_local: bool = True,
) -> List[ReadOnlyClient]:
    """Attach ``count`` read-only clients to ``cluster``.

    With ``spread`` (and a geo topology), client ``i`` lives in
    datacenter ``i % num_datacenters`` — the replica-local reads setup;
    otherwise all clients sit at the input site (datacenter 0).
    """
    geo = cluster.network.geo
    num_dcs = geo.num_datacenters if geo is not None else 1
    created = []
    for i in range(count):
        index = len(cluster.clients)
        client = ReadOnlyClient(
            cluster,
            index,
            keys_per_query=keys_per_query,
            partitions_per_query=partitions_per_query,
            max_txns=max_txns,
            datacenter=(i % num_dcs) if spread else 0,
            replica_local=replica_local,
        )
        cluster.clients.append(client)
        created.append(client)
    return created
