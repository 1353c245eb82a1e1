"""The paper's microbenchmark (Section 6.2).

Each transaction reads and updates 10 records. One record per involved
partition comes from that partition's small *hot* set — the knob that
sets contention: **contention index = 1 / hot_set_size** (paper
Section 6.3). The rest come from the large cold set. A multipartition
transaction involves two partitions: one hot record on each, with the
remaining cold accesses split evenly.

Knobs:

- ``mp_fraction`` — fraction of multipartition transactions (Fig. 6
  sweeps 0% / 10% / 100%).
- ``hot_set_size`` — per-partition hot set size (Fig. 7 sweeps the
  contention index 1/hot_set_size).
- ``archive_fraction`` — fraction of transactions that touch one record
  from the disk-resident archive tier (Section 4 experiments).
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigError
from repro.partition.catalog import Catalog
from repro.partition.partitioner import FootprintKeys, Key, KeyFieldPartitioner, Partitioner
from repro.sim.rng import below, sample
from repro.txn.procedures import Procedure, ProcedureRegistry
from repro.workloads.base import TxnSpec, Workload

RECORDS_PER_TXN = 10

# (hot, cold, arch): per tier, one list of keys per partition.
_KeyLists = Tuple[List[List[Key]], List[List[Key]], List[List[Key]]]


def _bump(ctx) -> int:
    """Microbenchmark logic: read all records, write each incremented."""
    total = 0
    read, write = ctx.read, ctx.write
    for key in ctx.txn.write_set:
        value = read(key) or 0
        total += value
        write(key, value + 1)
    return total


class Microbenchmark(Workload):
    """Synthetic read-modify-write workload with tunable contention.

    Keys are shared objects: the workload builds each
    ``("hot"|"cold"|"arch", partition, index)`` tuple once, loads that
    object into the stores and hands the same object out in every
    generated footprint, so a logged transaction retains no key storage
    of its own. Callers must never mutate them (they are tuples).
    """

    name = "microbenchmark"

    def __init__(
        self,
        hot_set_size: int = 1000,
        cold_set_size: int = 10000,
        archive_set_size: int = 50000,
        mp_fraction: float = 0.0,
        archive_fraction: float = 0.0,
        logic_cpu: float = 50e-6,
        partitions_per_txn: int = 2,
    ):
        if hot_set_size < 1:
            raise ConfigError("hot_set_size must be >= 1")
        if cold_set_size < RECORDS_PER_TXN:
            raise ConfigError(f"cold_set_size must be >= {RECORDS_PER_TXN}")
        if not 0.0 <= mp_fraction <= 1.0:
            raise ConfigError("mp_fraction must be in [0, 1]")
        if not 0.0 <= archive_fraction <= 1.0:
            raise ConfigError("archive_fraction must be in [0, 1]")
        if archive_fraction > 0 and archive_set_size < 1:
            raise ConfigError("archive_set_size must be >= 1 when archive_fraction > 0")
        if not 2 <= partitions_per_txn <= RECORDS_PER_TXN:
            raise ConfigError(
                f"partitions_per_txn must be in [2, {RECORDS_PER_TXN}]"
            )
        self.hot_set_size = hot_set_size
        self.cold_set_size = cold_set_size
        self.archive_set_size = archive_set_size
        self.mp_fraction = mp_fraction
        self.archive_fraction = archive_fraction
        self.logic_cpu = logic_cpu
        # Participants of a multipartition transaction (the paper uses
        # 2; the fan-out ablation sweeps it).
        self.partitions_per_txn = partitions_per_txn
        # (hot, cold, arch) key lists per partition, built on first use
        # and rebuilt when the partition count changes.
        self._keys: Optional[_KeyLists] = None

    @property
    def contention_index(self) -> float:
        """The paper's contention measure: 1 / hot set size."""
        return 1.0 / self.hot_set_size

    # -- Workload interface ---------------------------------------------------

    def register(self, registry: ProcedureRegistry) -> None:
        registry.register(
            Procedure(name="micro", logic=_bump, logic_cpu=self.logic_cpu)
        )

    def build_partitioner(self, num_partitions: int) -> Partitioner:
        # Keys embed their partition explicitly: ("hot"|"cold"|"arch", p, i).
        return KeyFieldPartitioner(num_partitions, range(num_partitions))

    def _key_lists(self, num_partitions: int) -> _KeyLists:
        keys = self._keys
        if keys is None or len(keys[0]) != num_partitions:
            partitions = range(num_partitions)
            archive = self.archive_set_size if self.archive_fraction > 0 else 0
            keys = self._keys = (
                [[("hot", p, i) for i in range(self.hot_set_size)] for p in partitions],
                [[("cold", p, i) for i in range(self.cold_set_size)] for p in partitions],
                [[("arch", p, i) for i in range(archive)] for p in partitions],
            )
        return keys

    def initial_data(self, catalog: Catalog) -> Dict[Key, Any]:
        data: Dict[Key, Any] = {}
        for tiers in zip(*self._key_lists(catalog.num_partitions)):
            for keys in tiers:
                data.update(dict.fromkeys(keys, 0))
        return data

    def cold_predicate(self) -> Optional[Callable[[Key], bool]]:
        if self.archive_fraction <= 0:
            return None
        return lambda key: key[0] == "arch"

    def generate(
        self, rng: random.Random, origin_partition: int, catalog: Catalog
    ) -> TxnSpec:
        num_partitions = catalog.num_partitions
        multipartition = (
            num_partitions > 1 and rng.random() < self.mp_fraction
        )
        # Every key is drawn *out of* the key lists: sampling a list
        # consumes the RNG exactly as sampling range(len(list)) does, and
        # repro.sim.rng's draws are the stdlib's, draw for draw.
        tables = self._keys  # _key_lists' hit path, inlined: a frame per txn
        if tables is None or len(tables[0]) != num_partitions:
            tables = self._key_lists(num_partitions)
        hot, cold, arch = tables
        getrandbits = rng.getrandbits
        keys: List[Key] = []
        if multipartition:
            fanout = min(self.partitions_per_txn, num_partitions)
            others = [p for p in range(num_partitions) if p != origin_partition]
            partitions = [origin_partition] + sample(rng, others, fanout - 1)
            cold_each = (RECORDS_PER_TXN - fanout) // fanout
            for partition in partitions:
                keys.append(hot[partition][below(getrandbits, self.hot_set_size)])
                keys += sample(rng, cold[partition], cold_each)
        else:
            keys.append(hot[origin_partition][below(getrandbits, self.hot_set_size)])
            keys += sample(rng, cold[origin_partition], RECORDS_PER_TXN - 1)

        if self.archive_fraction > 0 and rng.random() < self.archive_fraction:
            # Swap the last cold access for an archive (disk-tier) record.
            keys[-1] = arch[origin_partition][below(getrandbits, self.archive_set_size)]

        footprint = FootprintKeys(keys)
        return TxnSpec("micro", None, read_set=footprint, write_set=footprint)
