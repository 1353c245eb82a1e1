"""A YCSB-style key/value workload with Zipfian skew.

Not from the Calvin paper, but the de-facto standard for key/value
stores; it complements the microbenchmark by (a) mixing reads and
read-modify-writes in configurable proportions and (b) using a Zipfian
popularity distribution, which stresses the deterministic lock manager
with *naturally* skewed (rather than hot-set) contention. Used by the
skew ablation benchmark.
"""

from __future__ import annotations

import bisect
import math
import random
from typing import Any, Dict, List

from repro.errors import ConfigError
from repro.partition.catalog import Catalog
from repro.partition.partitioner import FootprintKeys, Key, KeyFieldPartitioner, Partitioner
from repro.txn.procedures import Procedure, ProcedureRegistry
from repro.workloads.base import TxnSpec, Workload


class ZipfGenerator:
    """Draws ranks in [0, n) with P(rank) ∝ 1/(rank+1)^theta.

    Exact inverse-CDF sampling over a precomputed table — O(log n) per
    draw, deterministic given the caller's RNG.
    """

    def __init__(self, n: int, theta: float):
        if n < 1:
            raise ConfigError("zipf universe must be >= 1")
        if theta < 0:
            raise ConfigError("zipf theta must be >= 0")
        self.n = n
        self.theta = theta
        weights = [1.0 / math.pow(rank + 1, theta) for rank in range(n)]
        total = sum(weights)
        cumulative = []
        running = 0.0
        for weight in weights:
            running += weight
            cumulative.append(running / total)
        self._cumulative = cumulative

    def sample(self, rng: random.Random) -> int:
        return bisect.bisect_left(self._cumulative, rng.random())


def _read_logic(ctx) -> Dict:
    return {key: ctx.read(key) for key in ctx.txn.read_set}


def _update_logic(ctx) -> int:
    updated = 0
    for key in ctx.txn.write_set:
        value = ctx.read(key) or 0
        ctx.write(key, value + 1)
        updated += 1
    return updated


class YcsbWorkload(Workload):
    """Zipfian-skewed point reads and read-modify-writes.

    ``theta`` is the Zipf exponent (0 = uniform; YCSB's default is
    0.99). ``read_fraction`` of transactions are read-only; the rest
    read-modify-write every key they touch. ``keys_per_txn`` keys are
    drawn per transaction, ``mp_fraction`` of transactions spread them
    over two partitions.
    """

    name = "ycsb"

    def __init__(
        self,
        records_per_partition: int = 10000,
        keys_per_txn: int = 4,
        theta: float = 0.99,
        read_fraction: float = 0.5,
        mp_fraction: float = 0.1,
        logic_cpu: float = 30e-6,
    ):
        if records_per_partition < keys_per_txn:
            raise ConfigError("records_per_partition must cover keys_per_txn")
        if keys_per_txn < 1:
            raise ConfigError("keys_per_txn must be >= 1")
        if not 0.0 <= read_fraction <= 1.0:
            raise ConfigError("read_fraction must be in [0, 1]")
        if not 0.0 <= mp_fraction <= 1.0:
            raise ConfigError("mp_fraction must be in [0, 1]")
        self.records_per_partition = records_per_partition
        self.keys_per_txn = keys_per_txn
        self.theta = theta
        self.read_fraction = read_fraction
        self.mp_fraction = mp_fraction
        self.logic_cpu = logic_cpu
        self._zipf = ZipfGenerator(records_per_partition, theta)

    def register(self, registry: ProcedureRegistry) -> None:
        registry.register(Procedure("ycsb_read", _read_logic, logic_cpu=self.logic_cpu))
        registry.register(
            Procedure("ycsb_update", _update_logic, logic_cpu=self.logic_cpu)
        )

    def build_partitioner(self, num_partitions: int) -> Partitioner:
        # Keys embed their partition explicitly: ("ycsb", p, i).
        return KeyFieldPartitioner(num_partitions, range(num_partitions))

    def initial_data(self, catalog: Catalog) -> Dict[Key, Any]:
        return {
            ("ycsb", partition, index): 0
            for partition in range(catalog.num_partitions)
            for index in range(self.records_per_partition)
        }

    def _draw_keys(self, rng: random.Random, partition: int, count: int) -> List[Key]:
        keys: Dict[Key, None] = {}  # insertion-ordered: draw order, not hash order
        while len(keys) < count:
            keys[("ycsb", partition, self._zipf.sample(rng))] = None
        return list(keys)

    def generate(
        self, rng: random.Random, origin_partition: int, catalog: Catalog
    ) -> TxnSpec:
        multipartition = (
            catalog.num_partitions > 1 and rng.random() < self.mp_fraction
        )
        if multipartition and self.keys_per_txn > 1:
            partner = rng.randrange(catalog.num_partitions - 1)
            if partner >= origin_partition:
                partner += 1
            local = self.keys_per_txn - self.keys_per_txn // 2
            keys = self._draw_keys(rng, origin_partition, local)
            keys += self._draw_keys(rng, partner, self.keys_per_txn // 2)
        else:
            keys = self._draw_keys(rng, origin_partition, self.keys_per_txn)
        footprint = FootprintKeys(keys)
        if rng.random() < self.read_fraction:
            return TxnSpec("ycsb_read", None, footprint, FootprintKeys())
        return TxnSpec("ycsb_update", None, footprint, footprint)
