"""Per-node storage facade: memory store + optional cold (disk) tier.

Which keys live on the cold tier is workload policy, supplied as a
predicate at cluster build time; which of those are currently *warm*
(memory resident) is tracked here. The sequencer consults
``cold_keys_of`` to decide whether a transaction must be deferred and
prefetched (paper Section 4).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional, Set, TYPE_CHECKING

from repro.obs import NULL_RECORDER, TraceRecorder
from repro.partition.partitioner import Key
from repro.sim.events import Event
from repro.storage.disk import SimulatedDisk
from repro.storage.kvstore import KVStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    import random

    from repro.config import CostModel
    from repro.sim.kernel import Simulator

ColdPredicate = Callable[[Key], bool]


class StorageEngine:
    """Storage stack of one node."""

    def __init__(
        self,
        sim: "Simulator",
        partition: int,
        costs: "CostModel",
        rng: "random.Random",
        disk_enabled: bool = False,
        cold_predicate: Optional[ColdPredicate] = None,
        tracer: TraceRecorder = NULL_RECORDER,
        replica: Optional[int] = None,
    ):
        self.sim = sim
        self.partition = partition
        self.store = KVStore(partition)
        self.disk_enabled = disk_enabled
        self._cold_predicate = cold_predicate or (lambda key: False)
        self.disk: Optional[SimulatedDisk] = (
            SimulatedDisk(sim, rng, costs, tracer=tracer, replica=replica, partition=partition)
            if disk_enabled
            else None
        )
        # Cold-tier keys fetched into memory; they stay resident.
        self.warm: Set[Key] = set()
        self.prefetches = 0

    # -- temperature ------------------------------------------------------

    def is_cold(self, key: Key) -> bool:
        """True when reading ``key`` would require a disk access right now."""
        if not self.disk_enabled:
            return False
        return self._cold_predicate(key) and key not in self.warm

    def cold_keys_of(self, keys: Iterable[Key]) -> List[Key]:
        """The subset of ``keys`` that is currently disk resident, in
        ``repr`` order: fetches are issued in it, so the disk's latency
        draws never depend on the order a footprint declared its keys
        in."""
        if not self.disk_enabled:
            return []
        predicate, warm = self._cold_predicate, self.warm
        return sorted((key for key in keys if predicate(key) and key not in warm), key=repr)

    # -- access -------------------------------------------------------------

    def fetch(self, key: Key) -> Event:
        """Bring a cold ``key`` into memory; event triggers when resident."""
        assert self.disk is not None, "fetch on a memory-only engine"
        self.prefetches += 1
        done = self.disk.fetch(key)
        done.add_callback(lambda _event: self.warm.add(key))
        return done

    def read(self, key: Key, default: Any = None) -> Any:
        """Read a (memory-resident) record."""
        return self.store.get(key, default)

    def read_many(self, keys: Iterable[Key]) -> Any:
        """Read several memory-resident records as a dict."""
        return self.store.get_many(keys)

    def expected_fetch_latency(self, estimate_error: float = 0.0) -> float:
        """The sequencer's estimate of one fetch, with optional relative error.

        A positive ``estimate_error`` makes the sequencer *underestimate*
        (the harmful direction in the paper's discussion: transactions
        get scheduled before their data is resident and stall holding
        locks).
        """
        assert self.disk is not None
        return self.disk.expected_latency() * (1.0 - estimate_error)
