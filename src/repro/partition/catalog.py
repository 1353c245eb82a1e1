"""Cluster catalog: node identity, addressing and layout.

A node is identified by ``NodeId(replica, partition)``. Network
addresses are small tuples so they stay hashable and debuggable.

Partial replication (``ClusterConfig.partial_hosting``) makes the
layout *sparse*: a replica may host only a subset of partitions, so
``nodes()``, ``replicas_of_partition()`` and friends all consult the
hosting map. Under full replication (the default) every hosting query
degenerates to the dense ``range`` answer, byte for byte.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import filterfalse
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.config import ClusterConfig
from repro.errors import ConfigError
from repro.partition.partitioner import Key, Partitioner

# Procedure name of the control-plane migration transaction (see
# repro.reconfig): a MigrationTxn copies a key range from its source to
# its destination partition *through* the sequenced log. It lives here
# (not in repro.reconfig) so the routing layer and the data plane can
# recognise it without importing the control plane.
MIGRATION_PROC = "__migration__"


def is_migration_txn(txn) -> bool:
    """True when ``txn`` is a control-plane key-range migration."""
    return txn.procedure == MIGRATION_PROC


def migration_route(txn) -> Tuple[int, int]:
    """(source, dest) partitions of a migration transaction."""
    return txn.args[1], txn.args[2]


class NodeId(NamedTuple):
    """Identity of one node: which replica it belongs to, which partition it hosts."""

    replica: int
    partition: int


def node_address(node: NodeId) -> Tuple[str, int, int]:
    """Network address of a node."""
    return ("node", node.replica, node.partition)


def client_address(replica: int, client_index: int) -> Tuple[str, int, int]:
    """Network address of a client."""
    return ("client", replica, client_index)


# One partition's share of a footprint: ``(reads, writes, read_only)``,
# each in footprint order. ``(writes, read_only)`` is the lock plan:
# WRITE locks, then READ locks on the keys read but not written. A plain
# tuple on purpose: one is retained per participant of every logged
# transaction, and the cyclic GC stops tracking a plain tuple of key
# tuples after its first pass, which it never does for a NamedTuple.
Slice = Tuple[Tuple[Key, ...], Tuple[Key, ...], Tuple[Key, ...]]


def split_slice(local: Slice, bucket_of: Callable[[Key], int]) -> Dict[int, Slice]:
    """Cut ``local`` by ``bucket_of(key)``. Filtering keeps footprint
    order, so every piece is again a slice (and a valid lock plan). The
    scheduler cuts its lock shards with it; :meth:`Catalog.route` cuts
    by owner from the owner lists it already has."""
    shared = local[0] is local[1]  # read_set == write_set: cut once, keep one tuple
    pieces: Dict[int, Tuple[List[Key], List[Key], List[Key]]] = {}
    for part, keys in enumerate(local):
        if shared and part == 1:
            continue
        for key in keys:
            pieces.setdefault(bucket_of(key), ([], [], []))[part].append(key)
    out: Dict[int, Slice] = {}
    for bucket, (reads, writes, read_only) in pieces.items():
        read_keys = tuple(reads)
        out[bucket] = (read_keys, read_keys if shared else tuple(writes), tuple(read_only))
    return out


class Route(dict):
    """Calvin's phase-1 read/write set analysis for one transaction,
    under one routing version: maps each participant partition to the
    :data:`Slice` of the footprint it holds, and names the roles. Built
    only by :meth:`Catalog.route`; readers treat it as immutable.

    ``active`` participants hold write-set keys (or, for a read-only
    transaction, the lowest participant alone); they execute the logic,
    and ``reply`` is the one that reports the result. ``read_holders``
    are the partitions every active participant collects reads from.

    A route travels in flight, on the
    :class:`~repro.txn.transaction.SequencedTxn` every participant
    receives, and dies with it: the input log keeps only the
    transaction, from which any replica recomputes it. The record is
    the mapping itself rather than an object holding one, which halves
    what each costs the allocator and the cyclic GC.
    """

    __slots__ = ("participants", "active", "reply", "read_holders")

    def __init__(
        self,
        participants: FrozenSet[int],
        active: FrozenSet[int],
        read_holders: FrozenSet[int],
        slices: Dict[int, Slice],
    ):
        super().__init__(slices)
        self.participants = participants
        self.active = active
        self.reply = min(active)
        self.read_holders = read_holders

    def split_writes(self, writes: Dict[Key, Any]) -> Dict[int, Dict[Key, Any]]:
        """A buffer of writes (keys within the write set) cut by owning
        partition, each part in buffer order; no entry for a partition
        with nothing to apply."""
        owner = {
            key: partition
            for partition, (_, local_writes, _) in self.items()
            for key in local_writes
        }
        parts: Dict[int, Dict[Key, Any]] = {}
        for key, value in writes.items():
            parts.setdefault(owner[key], {})[key] = value
        return parts


class Catalog:
    """Owns cluster layout (replicas × partitions, plus the partitioner)
    and the one routing decision: :meth:`route` maps a transaction and
    its epoch to a :class:`Route`, and nothing outside this class knows
    how key ownership is computed or when it changes."""

    def __init__(self, config: ClusterConfig, partitioner: Partitioner):
        config.validate()
        if partitioner.num_partitions != config.num_partitions:
            raise ConfigError(
                "partitioner partition count "
                f"({partitioner.num_partitions}) does not match config "
                f"({config.num_partitions})"
            )
        self.config = config
        self.partitioner = partitioner
        # Partial replication: per-replica hosted-partition sets (None =
        # full replication). Frozensets answer membership, the sorted
        # tuples answer deterministic iteration.
        if config.partial_hosting is None:
            self._hosting: Optional[Tuple[FrozenSet[int], ...]] = None
            self._hosted_sorted: Optional[Tuple[Tuple[int, ...], ...]] = None
        else:
            self._hosting = tuple(
                frozenset(hosted) for hosted in config.partial_hosting
            )
            self._hosted_sorted = tuple(
                tuple(hosted) for hosted in config.partial_hosting
            )
        # Routes are retained by every transaction in flight; distinct
        # partition sets are few, so each is stored once.
        self._partition_sets: Dict[FrozenSet[int], FrozenSet[int]] = {}
        # -- elastic reconfiguration (repro.reconfig) --------------------
        # Epoch-keyed routing overrides and origin membership, both
        # versioned: entry i covers every epoch >= its effective epoch.
        # With nothing armed each lookup is a bisect over one origin
        # entry or zero overrides, i.e. the static answer.
        active = config.active_partitions
        initial = config.num_partitions if active is None else active
        self._origin_epochs: List[int] = [0]
        self._origin_sets: List[Tuple[int, ...]] = [tuple(range(initial))]
        self._override_epochs: List[int] = []
        self._override_maps: List[Dict[Key, int]] = []
        self._overridden_keys: Set[Key] = set()

    @property
    def num_partitions(self) -> int:
        return self.config.num_partitions

    @property
    def num_replicas(self) -> int:
        return self.config.num_replicas

    @property
    def partial(self) -> bool:
        """True when some replica hosts only a subset of partitions."""
        return self._hosting is not None

    def hosting_of(self, replica: int) -> Optional[FrozenSet[int]]:
        """The partitions ``replica`` hosts, or None for "all of them"."""
        if self._hosting is None:
            return None
        return self._hosting[replica]

    def hosted_partitions(self, replica: int) -> Sequence[int]:
        """Sorted partitions hosted by ``replica`` (a ``range`` when full)."""
        if self._hosted_sorted is None:
            return range(self.num_partitions)
        return self._hosted_sorted[replica]

    def is_hosted(self, replica: int, partition: int) -> bool:
        if self._hosting is None:
            return True
        return partition in self._hosting[replica]

    def nodes(self) -> Iterator[NodeId]:
        """All *existing* nodes, replica-major (replica 0 first)."""
        for replica in range(self.num_replicas):
            for partition in self.hosted_partitions(replica):
                yield NodeId(replica, partition)

    def nodes_of_replica(self, replica: int) -> List[NodeId]:
        return [NodeId(replica, p) for p in self.hosted_partitions(replica)]

    def replicas_of_partition(self, partition: int) -> List[NodeId]:
        """The same partition across every replica *hosting* it (a Paxos
        group; under partial replication the group shrinks to hosts)."""
        return [
            NodeId(r, partition)
            for r in range(self.num_replicas)
            if self.is_hosted(r, partition)
        ]

    def writeset_targets(self, partition: int, participants) -> Tuple[int, ...]:
        """Peer replicas that need a shipped writeset for ``partition``.

        A replica re-executes a multipartition transaction only when it
        hosts *all* participants; a replica hosting ``partition`` but
        missing some participant cannot re-execute (it lacks the remote
        reads) and instead applies the writeset shipped by replica 0.
        Empty under full replication.
        """
        if self._hosting is None:
            return ()
        return tuple(
            replica
            for replica in range(1, self.num_replicas)
            if partition in self._hosting[replica]
            and not participants <= self._hosting[replica]
        )

    def partition_of(self, key: Key) -> int:
        return self.partitioner.partition_of(key)

    def partitions_of(self, keys) -> Set[int]:
        """The set of partitions covering ``keys`` (static map)."""
        return set(self._owners(keys, 0, 0))

    def _owners(self, keys, epoch: int, version: int) -> List[int]:
        """Partition holding each of ``keys``, in order, at ``epoch``."""
        if version:
            partition_of_at = self.partition_of_at
            return [partition_of_at(key, epoch) for key in keys]
        # No override in force yet at ``epoch``: the static map. (With
        # none armed at all, route() calls the partitioner directly.)
        return self.partitioner.owners_of(keys)

    # -- elastic reconfiguration (repro.reconfig) -------------------------

    @property
    def initial_origins(self) -> Tuple[int, ...]:
        """Active input partitions at epoch 0."""
        return self._origin_sets[0]

    def origins_at(self, epoch: int) -> Tuple[int, ...]:
        """Sorted active input partitions (origins) covering ``epoch``."""
        idx = bisect_right(self._origin_epochs, epoch) - 1
        return self._origin_sets[idx]

    def arm_origin_change(self, effective_epoch: int, origins) -> None:
        """Change the active-origin set from ``effective_epoch`` on.

        Every scheduler's epoch barrier consults :meth:`origins_at`, so
        arming the same change on every replica (which the control plane
        does deterministically) makes all of them flip identically.
        """
        origins = tuple(sorted(set(origins)))
        if not origins:
            raise ConfigError("origin set cannot be empty")
        for origin in origins:
            if not 0 <= origin < self.num_partitions:
                raise ConfigError(f"unknown origin partition {origin}")
        last = self._origin_epochs[-1]
        if effective_epoch < last:
            raise ConfigError(
                "origin changes must be armed in epoch order "
                f"(got {effective_epoch} after {last})"
            )
        if effective_epoch == last:
            self._origin_sets[-1] = origins
        else:
            self._origin_epochs.append(effective_epoch)
            self._origin_sets.append(origins)

    def arm_override(self, effective_epoch: int, moves: Dict[Key, int]) -> None:
        """Route each key in ``moves`` to a new partition from
        ``effective_epoch`` on (cumulative over earlier overrides).

        The data copy itself is a sequenced :data:`MIGRATION_PROC`
        transaction ordered first within ``effective_epoch``; arming the
        override only changes *routing*, which every replica derives
        from the same epoch number.
        """
        if not moves:
            raise ConfigError("routing override moves no keys")
        for key, dest in moves.items():
            if not 0 <= dest < self.num_partitions:
                raise ConfigError(
                    f"override routes {key!r} to unknown partition {dest}"
                )
        if self._override_epochs and effective_epoch < self._override_epochs[-1]:
            raise ConfigError(
                "routing overrides must be armed in epoch order "
                f"(got {effective_epoch} after {self._override_epochs[-1]})"
            )
        # Always a new entry, even at an already-armed epoch: every arm
        # starts a routing version.
        base = self._override_maps[-1] if self._override_maps else {}
        self._override_epochs.append(effective_epoch)
        self._override_maps.append({**base, **moves})
        self._overridden_keys.update(moves)

    def routing_version_at(self, epoch: int) -> int:
        """Index of the routing version covering ``epoch`` (0 = static)."""
        return bisect_right(self._override_epochs, epoch)

    def partition_of_at(self, key: Key, epoch: int) -> int:
        """Partition holding ``key`` under the routing of ``epoch``."""
        if key in self._overridden_keys:
            idx = bisect_right(self._override_epochs, epoch) - 1
            if idx >= 0:
                dest = self._override_maps[idx].get(key)
                if dest is not None:
                    return dest
        return self.partition_of(key)

    def route(self, txn, epoch: int) -> Route:
        """The :class:`Route` of ``txn`` sequenced in ``epoch``: a pure
        function of the two and the routing armed for ``epoch``, built
        afresh on every call. The sequencer resolves each batch once per
        cluster (:meth:`Sequencer.dispatch
        <repro.sequencer.sequencer.Sequencer.dispatch>`) and the route
        rides on the sequenced transaction from there; the checkers, the
        2PC baseline and a recovery resend call this directly.

        Each key's owner is looked up once, into one list per side. A
        footprint whose lists name one owner is that owner's slice,
        uncut; any other is cut in one pass over its (key, owner) pairs,
        with the same slices, slice order and interned sets a per-key
        :func:`split_slice` would give."""
        if txn.procedure == MIGRATION_PROC:
            # Pinned to (source, dest): at its own epoch the moving keys
            # already route to the destination, yet the data still lives
            # on the source. Both sides write-lock the full range — the
            # source serializes the copy-out behind earlier local
            # writers and then purges, the destination serializes every
            # epoch >= flip transaction behind the copy-in it applies.
            source, dest = migration_route(txn)
            both = self._interned((source, dest))
            side = ((), txn.write_set, ())
            route = Route(
                both, both, self._interned((source,)), {source: side, dest: side}
            )
            route.reply = dest  # the side that applies the copy reports it
            return route
        reads = txn.read_set
        writes = txn.write_set
        shared = reads is writes
        if self._override_epochs:
            version = bisect_right(self._override_epochs, epoch)
            read_owners = self._owners(reads, epoch, version)
            write_owners = read_owners if shared else self._owners(writes, epoch, version)
        else:
            owners_of = self.partitioner.owners_of
            read_owners = owners_of(reads)
            write_owners = read_owners if shared else owners_of(writes)
        owners = read_owners or write_owners
        if not owners:
            raise ConfigError(f"transaction {txn.txn_id} has an empty footprint")
        first = owners[0]
        if read_owners.count(first) == len(read_owners) and (
            shared or write_owners.count(first) == len(write_owners)
        ):
            # One owner: the whole footprint is its slice, uncut.
            sole = self._interned((first,))
            if shared:
                read_only: Tuple[Key, ...] = ()
            else:
                written = set(writes)
                read_only = tuple(key for key in reads if key not in written)
            # Its sole participant is also its sole executor, read-only
            # or not.
            read_holders = sole if reads else self._interned(())
            return Route(sole, sole, read_holders, {first: (reads, writes, read_only)})
        # Several owners: one pass over each side's (key, owner) pairs
        # cuts it, keeping footprint order; slices come in order of first
        # appearance, reads then writes.
        pieces: Dict[int, Tuple[List[Key], List[Key]]] = {}
        for key, partition in zip(reads, read_owners):
            piece = pieces.get(partition)
            if piece is None:
                pieces[partition] = piece = ([], [])
            piece[0].append(key)
        read_holders = self._interned(pieces)  # before writes add theirs
        slices: Dict[int, Slice] = {}
        if shared:
            writers = participants = read_holders
            for partition, (local, _) in pieces.items():
                local_keys = tuple(local)
                slices[partition] = (local_keys, local_keys, ())
        else:
            for key, partition in zip(writes, write_owners):
                piece = pieces.get(partition)
                if piece is None:
                    pieces[partition] = piece = ([], [])
                piece[1].append(key)
            writers = self._interned(write_owners)
            participants = self._interned(pieces)
            is_written = set(writes).__contains__
            for partition, (local_reads, local_writes) in pieces.items():
                local_read_keys = tuple(local_reads)
                slices[partition] = (
                    local_read_keys,
                    tuple(local_writes),
                    tuple(filterfalse(is_written, local_read_keys)),
                )
        # A read-only transaction still needs one executor of its logic.
        active = writers or self._interned((min(participants),))
        return Route(participants, active, read_holders, slices)

    def _interned(self, partitions) -> FrozenSet[int]:
        key = frozenset(partitions)
        return self._partition_sets.setdefault(key, key)
