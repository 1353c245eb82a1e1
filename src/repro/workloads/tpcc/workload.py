"""The TPC-C workload driver: transaction mix and request generation."""

from __future__ import annotations

import itertools
import random
from bisect import bisect_right
from typing import Dict, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.partition.catalog import Catalog
from repro.partition.partitioner import KeyFieldPartitioner, Partitioner
from repro.sim.rng import below
from repro.txn.procedures import ProcedureRegistry
from repro.workloads.base import TxnSpec, Workload
from repro.workloads.tpcc import keys
from repro.workloads.tpcc.loader import (
    TpccScale,
    build_initial_data,
    customer_last_name,
)
from repro.workloads.tpcc.procedures import register_procedures

# The standard TPC-C mix (weights sum to 1).
DEFAULT_MIX: Dict[str, float] = {
    "new_order": 0.45,
    "payment": 0.43,
    "order_status": 0.04,
    "delivery": 0.04,
    "stock_level": 0.04,
}


class TpccWorkload(Workload):
    """Generates the five TPC-C transaction types against a scaled schema."""

    name = "tpcc"

    def __init__(
        self,
        scale: Optional[TpccScale] = None,
        mix: Optional[Dict[str, float]] = None,
        remote_fraction: float = 0.10,
        remote_payment_fraction: float = 0.15,
        invalid_item_fraction: float = 0.01,
        min_order_lines: int = 5,
        max_order_lines: int = 15,
        by_name_fraction: float = 0.60,
    ):
        self.scale = scale or TpccScale()
        mix = dict(mix or DEFAULT_MIX)
        total = sum(mix.values())
        if total <= 0:
            raise ConfigError("TPC-C mix weights must sum to a positive value")
        unknown = set(mix) - set(DEFAULT_MIX)
        if unknown:
            raise ConfigError(f"unknown TPC-C transaction types in mix: {sorted(unknown)}")
        self.mix = {name: weight / total for name, weight in mix.items()}
        # Type names and the running sums of their weights, for _pick_type.
        self._mix_names = tuple(self.mix)
        self._mix_bounds = tuple(itertools.accumulate(self.mix.values()))
        if not 0 <= remote_fraction <= 1 or not 0 <= remote_payment_fraction <= 1:
            raise ConfigError("remote fractions must be in [0, 1]")
        if not 1 <= min_order_lines <= max_order_lines:
            raise ConfigError("order line bounds must satisfy 1 <= min <= max")
        if not 0 <= by_name_fraction <= 1:
            raise ConfigError("by_name_fraction must be in [0, 1]")
        self.remote_fraction = remote_fraction
        self.remote_payment_fraction = remote_payment_fraction
        self.invalid_item_fraction = invalid_item_fraction
        self.min_order_lines = min_order_lines
        self.max_order_lines = max_order_lines
        # TPC-C 2.5.2.2 / 2.6.2.2: 60% of Payment and Order-Status
        # select the customer by last name (via OLLP here).
        self.by_name_fraction = by_name_fraction
        # Client-side order-id assignment keeps New Order's write set
        # static (the trick that makes it an independent transaction).
        self._order_ids = itertools.count(1)
        # keys.tables for the warehouse count in use, built on first use
        # and rebuilt when the partition count changes.
        self._keys: Optional[keys.Tables] = None

    # -- Workload interface ---------------------------------------------------

    def register(self, registry: ProcedureRegistry) -> None:
        register_procedures(registry)

    def build_partitioner(self, num_partitions: int) -> Partitioner:
        # Every key carries its warehouse in key[1] (tpcc.keys).
        per = self.scale.warehouses_per_partition
        warehouses = range(self.scale.total_warehouses(num_partitions))
        return KeyFieldPartitioner(num_partitions, [w // per for w in warehouses])

    def _key_tables(self, total_warehouses: int) -> keys.Tables:
        tables = self._keys
        if tables is None or len(tables[0]) != total_warehouses:
            tables = self._keys = keys.tables(total_warehouses, self.scale)
        return tables

    def initial_data(self, catalog: Catalog):
        partitions = catalog.num_partitions
        tables = self._key_tables(self.scale.total_warehouses(partitions))
        return build_initial_data(self.scale, partitions, tables)

    def generate(
        self, rng: random.Random, origin_partition: int, catalog: Catalog
    ) -> TxnSpec:
        per_partition = self.scale.warehouses_per_partition
        w = origin_partition * per_partition + below(rng.getrandbits, per_partition)
        total_warehouses = per_partition * catalog.num_partitions
        choice = self._pick_type(rng)
        if choice == "new_order":
            return self._new_order(rng, w, total_warehouses)
        if choice == "payment":
            return self._payment(rng, w, total_warehouses)
        if choice == "order_status":
            return self._order_status(rng, w)
        if choice == "delivery":
            return self._delivery(rng, w)
        return self._stock_level(rng, w)

    # -- per-type generators ------------------------------------------------------

    def _pick_type(self, rng: random.Random) -> str:
        # The first type whose running sum exceeds the roll; a roll
        # past the last sum (float round-off) falls back to the first.
        index = bisect_right(self._mix_bounds, rng.random())
        return self._mix_names[index % len(self._mix_names)]

    def _other_warehouse(self, rng: random.Random, w: int, total: int) -> int:
        other = below(rng.getrandbits, total - 1)
        return other + 1 if other >= w else other

    def _new_order(self, rng: random.Random, w: int, total_warehouses: int) -> TxnSpec:
        scale = self.scale
        getrandbits = rng.getrandbits
        d = below(getrandbits, scale.districts_per_warehouse)
        c = below(getrandbits, scale.customers_per_district)
        o_id = next(self._order_ids)
        low = self.min_order_lines
        n_lines = low + below(getrandbits, self.max_order_lines - low + 1)

        lines = []
        for _ in range(n_lines):
            item_id = below(getrandbits, scale.items)
            supply_w = w
            if total_warehouses > 1 and rng.random() < self.remote_fraction:
                supply_w = self._other_warehouse(rng, w, total_warehouses)
            qty = 1 + below(getrandbits, 10)
            lines.append((item_id, supply_w, qty))
        if rng.random() < self.invalid_item_fraction:
            # TPC-C 2.4.1.5: the last line references an unused item.
            item_id, supply_w, qty = lines[-1]
            lines[-1] = (-1, supply_w, qty)
        return self.new_order_request(w, d, c, o_id, lines, total_warehouses)

    def new_order_request(
        self, w: int, d: int, c: int, o_id: int,
        lines: Sequence[Tuple[int, int, int]], total_warehouses: int,
    ) -> TxnSpec:
        """The New Order request for order ``o_id`` of customer ``c`` in
        district ``d`` of warehouse ``w``, one ``(item id, supplying
        warehouse, quantity)`` per entry of ``lines`` (item id -1: the
        unused item). Every key is built here, once: ``args`` carries
        the footprint's own key objects, so the logic builds none and
        the rows it creates are stored under the keys the input log
        already holds."""
        warehouses, districts, customers, items, stocks = self._key_tables(
            total_warehouses
        )
        warehouse_key = warehouses[w]
        district_key = districts[w][d]
        customer_key = customers[w][d][c]
        order_key = keys.order(w, d, o_id)
        last_order_key = keys.customer_last_order(w, d, c)
        reads = [warehouse_key, district_key, customer_key]
        writes = [district_key, order_key, last_order_key]
        item_keys = items[w]
        order_lines = []
        for number, (item_id, supply_w, qty) in enumerate(lines):
            if item_id < 0:  # the unused item: no loaded row, no table entry
                item_key = keys.item(w, item_id)
                stock_key = keys.stock(supply_w, item_id)
            else:
                item_key = item_keys[item_id]
                stock_key = stocks[supply_w][item_id]
            # keys.order_line's tuple, built inline: one call less per line.
            line_key = ("order_line", w, d, o_id, number)
            reads += (item_key, stock_key)
            writes += (stock_key, line_key)
            order_lines.append((item_key, stock_key, line_key, qty))
        args = {
            "w": w, "d": d, "c": c, "o_id": o_id,
            "warehouse": warehouse_key, "district": district_key, "customer": customer_key,
            "order": order_key, "last_order": last_order_key,
            "lines": tuple(order_lines),
        }
        return TxnSpec.create("new_order", args, reads, writes)

    def _random_last_name(self, rng: random.Random) -> str:
        # Draw a name that is guaranteed to exist in the loaded data.
        return customer_last_name(below(rng.getrandbits, self.scale.customers_per_district))

    def _payment(self, rng: random.Random, w: int, total_warehouses: int) -> TxnSpec:
        scale = self.scale
        getrandbits = rng.getrandbits
        d = below(getrandbits, scale.districts_per_warehouse)
        c_w, c_d = w, d
        if total_warehouses > 1 and rng.random() < self.remote_payment_fraction:
            c_w = self._other_warehouse(rng, w, total_warehouses)
            c_d = below(getrandbits, scale.districts_per_warehouse)
        amount = round(rng.uniform(1.0, 5000.0), 2)
        if rng.random() < self.by_name_fraction:
            args = {
                "w": w, "d": d, "c_w": c_w, "c_d": c_d,
                "last": self._random_last_name(rng), "amount": amount,
            }
            return TxnSpec.create("payment_by_name", args, (), (), dependent=True)
        c = below(getrandbits, scale.customers_per_district)
        args = {"w": w, "d": d, "c_w": c_w, "c_d": c_d, "c": c, "amount": amount}
        warehouses, districts, customers, _items, _stocks = self._key_tables(
            total_warehouses
        )
        footprint = (warehouses[w], districts[w][d], customers[c_w][c_d][c])
        return TxnSpec.create("payment", args, footprint, footprint)

    def _order_status(self, rng: random.Random, w: int) -> TxnSpec:
        scale = self.scale
        d = below(rng.getrandbits, scale.districts_per_warehouse)
        if rng.random() < self.by_name_fraction:
            args = {"w": w, "d": d, "last": self._random_last_name(rng)}
            return TxnSpec.create("order_status_by_name", args, (), (), dependent=True)
        args = {"w": w, "d": d, "c": below(rng.getrandbits, scale.customers_per_district)}
        return TxnSpec.create("order_status", args, (), (), dependent=True)

    def _delivery(self, rng: random.Random, w: int) -> TxnSpec:
        args = {
            "w": w,
            "districts": self.scale.districts_per_warehouse,
            "carrier": 1 + below(rng.getrandbits, 10),
        }
        return TxnSpec.create("delivery", args, (), (), dependent=True)

    def _stock_level(self, rng: random.Random, w: int) -> TxnSpec:
        args = {
            "w": w,
            "d": below(rng.getrandbits, self.scale.districts_per_warehouse),
            "threshold": 10 + below(rng.getrandbits, 11),
        }
        return TxnSpec.create("stock_level", args, (), (), dependent=True)
