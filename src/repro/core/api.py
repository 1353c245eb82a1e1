"""``CalvinDB`` — the friendly facade over a simulated cluster.

For examples and small programs: register procedures, load data, execute
transactions and get results back, while the full Calvin machinery
(sequencer epochs, deterministic locking, remote reads, replication)
runs underneath in virtual time.

The facade has two surfaces over the same future mechanism:

- **Synchronous**: :meth:`CalvinDB.execute` runs one transaction to
  completion and returns its :class:`TransactionResult`.
- **Asynchronous**: :meth:`CalvinDB.submit` sends the transaction and
  returns a :class:`TxnHandle` immediately, *without* advancing virtual
  time. Call :meth:`TxnHandle.result` (or :meth:`CalvinDB.gather` over
  many handles) to drive the simulation until the result is ready.
  Handles submitted together pipeline through the same sequencing
  epochs, so N independent transactions cost roughly one epoch, not N.

Example (doctest)::

    >>> from repro import CalvinDB
    >>> db = CalvinDB(num_partitions=2)
    >>> @db.procedure("transfer")
    ... def transfer(ctx):
    ...     src, dst, amount = ctx.args
    ...     balance = ctx.read(src)
    ...     if balance < amount:
    ...         ctx.abort("insufficient funds")
    ...     ctx.write(src, balance - amount)
    ...     ctx.write(dst, ctx.read(dst) + amount)
    >>> db.load({"alice": 100, "bob": 50})
    >>> result = db.execute("transfer", ("alice", "bob", 30),
    ...                     read_set=["alice", "bob"], write_set=["alice", "bob"])
    >>> result.committed
    True
    >>> db.get("alice"), db.get("bob")
    (70, 80)

    Async: submit several transfers, then gather — they share epochs:

    >>> handles = [db.submit("transfer", ("alice", "bob", 1),
    ...                      read_set=["alice", "bob"], write_set=["alice", "bob"])
    ...            for _ in range(3)]
    >>> [h.done for h in handles]
    [False, False, False]
    >>> results = db.gather(handles)
    >>> [r.committed for r in results]
    [True, True, True]
    >>> db.get("alice")
    67
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

from repro.config import ClusterConfig
from repro.core.cluster import CalvinCluster
from repro.errors import ConfigError
from repro.net.messages import ClientSubmit, TxnReply
from repro.partition.catalog import NodeId, node_address
from repro.partition.partitioner import (
    HashPartitioner,
    Key,
    Partitioner,
    canonical_footprint,
)
from repro.sim.events import Event
from repro.txn.ollp import MAX_RESTARTS, reconnoiter
from repro.txn.procedures import ProcedureRegistry
from repro.txn.result import TransactionResult, TxnStatus
from repro.txn.transaction import Transaction

_DRIVER_ADDRESS = ("driver", 0, 0)
# Runaway guard for the interactive drain paths: far above anything a
# single transaction needs, small enough to fail fast on a livelock.
_MAX_DRAIN_EVENTS = 5_000_000


class TxnHandle:
    """A submitted-but-not-necessarily-finished transaction.

    Thin wrapper over the :class:`~repro.sim.events.Event` future that
    the reply router triggers; obtained from :meth:`CalvinDB.submit`.
    """

    __slots__ = ("db", "txn_id", "_future")

    def __init__(self, db: "CalvinDB", txn_id: int, future: Event):
        self.db = db
        self.txn_id = txn_id
        self._future = future

    @property
    def done(self) -> bool:
        """True once the result has been delivered (no time advances)."""
        return self._future.triggered

    def result(self) -> TransactionResult:
        """The transaction's result, advancing virtual time as needed."""
        return self.db.cluster.sim.run_until_triggered(
            self._future, max_events=_MAX_DRAIN_EVENTS
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.done else "pending"
        return f"<TxnHandle txn_id={self.txn_id} {state}>"


class CalvinDB:
    """A single-caller view of a Calvin cluster (sync and async surfaces)."""

    def __init__(
        self,
        num_partitions: int = 2,
        num_replicas: int = 1,
        replication_mode: str = "none",
        seed: int = 2012,
        config: Optional[ClusterConfig] = None,
        partitioner: Optional[Partitioner] = None,
        **config_overrides: Any,
    ):
        if config is None:
            config = ClusterConfig(
                num_partitions=num_partitions,
                num_replicas=num_replicas,
                replication_mode=replication_mode,
                seed=seed,
            )
        if config_overrides:
            config = config.with_changes(**config_overrides)
        self.registry = ProcedureRegistry()
        partitioner = partitioner or HashPartitioner(config.num_partitions)
        self.cluster = CalvinCluster(
            config, registry=self.registry, partitioner=partitioner
        )
        self.cluster.network.register(_DRIVER_ADDRESS, self._on_reply)
        self._futures: Dict[int, Event] = {}

    # -- schema / data ------------------------------------------------------

    def procedure(
        self,
        name: str,
        logic_cpu: float = 50e-6,
        reconnoiter=None,
        recheck=None,
    ):
        """Decorator registering a stored procedure on every node."""
        return self.registry.define(
            name, logic_cpu=logic_cpu, reconnoiter=reconnoiter, recheck=recheck
        )

    def load(self, data: Dict[Key, Any]) -> None:
        """Bulk-load records (before or between transactions)."""
        self.cluster.load(data)

    def get(self, key: Key) -> Any:
        """Direct snapshot read (outside any transaction)."""
        return self.cluster.analytics_read(key)

    # -- async surface -------------------------------------------------------

    def submit(
        self,
        procedure: str,
        args: Any = None,
        read_set: Iterable[Key] = (),
        write_set: Iterable[Key] = (),
        origin_partition: Optional[int] = None,
    ) -> TxnHandle:
        """Submit one transaction; return a :class:`TxnHandle` immediately.

        Virtual time does *not* advance until :meth:`TxnHandle.result`
        (or :meth:`gather`) is called, so handles submitted together
        pipeline through the same sequencing epochs. Dependent
        procedures are not supported here (their OLLP reconnaissance is
        inherently sequential); use :meth:`execute_dependent`.
        """
        read_set, write_set = canonical_footprint(read_set, write_set)
        if not read_set and not write_set:
            raise ConfigError("submit needs a non-empty read or write set")
        if self.registry.get(procedure).is_dependent:
            raise ConfigError(
                f"procedure {procedure!r} is dependent; use execute_dependent"
            )
        return self._submit_txn(
            procedure, args, read_set, write_set, origin_partition,
            dependent=False, token=None, restarts=0,
        )

    def gather(self, handles: Iterable[TxnHandle]) -> List[TransactionResult]:
        """Wait for every handle; results come back in handle order."""
        return [handle.result() for handle in handles]

    def execute_many(
        self,
        requests: Iterable[tuple],
        origin_partition: Optional[int] = None,
    ) -> List[TransactionResult]:
        """Submit many transactions concurrently; wait for all results.

        ``requests`` is an iterable of ``(procedure, args, read_set,
        write_set)`` tuples. Equivalent to :meth:`submit` on each
        followed by :meth:`gather` — N independent transactions cost
        roughly one epoch, not N.
        """
        handles = [
            self.submit(procedure, args, read_set, write_set, origin_partition)
            for procedure, args, read_set, write_set in requests
        ]
        return self.gather(handles)

    # -- sync surface --------------------------------------------------------

    def execute(
        self,
        procedure: str,
        args: Any = None,
        read_set: Iterable[Key] = (),
        write_set: Iterable[Key] = (),
        origin_partition: Optional[int] = None,
    ) -> TransactionResult:
        """Run one transaction to completion and return its result.

        Thin synchronous wrapper over :meth:`submit`: virtual time
        advances as needed (epoch wait, network hops, execution); each
        call typically costs 10-20 ms of *virtual* time. Dependent
        procedures are routed through the full OLLP loop.
        """
        read_set, write_set = canonical_footprint(read_set, write_set)
        if not read_set and not write_set:
            raise ConfigError("execute needs a non-empty read or write set")
        proc = self.registry.get(procedure)
        if proc.is_dependent:
            return self.execute_dependent(procedure, args, origin_partition)
        return self._submit_txn(
            procedure, args, read_set, write_set, origin_partition,
            dependent=False, token=None, restarts=0,
        ).result()

    def execute_dependent(
        self,
        procedure: str,
        args: Any = None,
        origin_partition: Optional[int] = None,
    ) -> TransactionResult:
        """Run a dependent transaction through the full OLLP loop."""
        proc = self.registry.get(procedure)
        if not proc.is_dependent:
            raise ConfigError(f"procedure {procedure!r} is not dependent")
        restarts = 0
        while True:
            footprint = reconnoiter(proc, self.cluster.analytics_read, args)
            result = self._submit_txn(
                procedure, args, footprint.read_set, footprint.write_set,
                origin_partition, dependent=True, token=footprint.token,
                restarts=restarts,
            ).result()
            if result.status is not TxnStatus.RESTART:
                return result
            restarts += 1
            if restarts > MAX_RESTARTS:
                return result

    # -- plumbing ------------------------------------------------------------

    def _submit_txn(
        self, procedure, args, read_set, write_set, origin_partition,
        dependent, token, restarts,
    ) -> TxnHandle:
        cluster = self.cluster
        cluster.start()
        if not read_set and not write_set:
            raise ConfigError("transaction needs a non-empty footprint")
        if origin_partition is None:
            origin_partition = min(
                cluster.catalog.partitions_of([*read_set, *write_set])
            )
        txn = Transaction.create(
            txn_id=cluster.next_txn_id(),
            procedure=procedure,
            args=args,
            read_set=read_set,
            write_set=write_set,
            origin_partition=origin_partition,
            client=_DRIVER_ADDRESS,
            dependent=dependent,
            footprint_token=token,
            submit_time=cluster.sim.now,
            restarts=restarts,
        )
        future = Event(cluster.sim)
        self._futures[txn.txn_id] = future
        message = ClientSubmit(txn)
        cluster.network.send(
            _DRIVER_ADDRESS,
            node_address(NodeId(0, origin_partition)),
            message,
            message.size_estimate(),
        )
        return TxnHandle(self, txn.txn_id, future)

    def _on_reply(self, src: Any, message: Any) -> None:
        assert isinstance(message, TxnReply)
        future = self._futures.pop(message.result.txn_id, None)
        if future is not None:
            future.succeed(message.result)

    # -- introspection -----------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self.cluster.sim.now

    def final_state(self) -> Dict[Key, Any]:
        return self.cluster.final_state()
