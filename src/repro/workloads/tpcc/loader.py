"""TPC-C initial database population.

Deterministic (no RNG): two independently built clusters load
byte-identical data, which the replay/recovery checkers require.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.errors import ConfigError
from repro.workloads.tpcc import keys


@dataclass(frozen=True)
class TpccScale:
    """Scale factors (defaults are laptop-sized, all knobs adjustable)."""

    warehouses_per_partition: int = 4
    districts_per_warehouse: int = 10
    customers_per_district: int = 100
    items: int = 1000

    def __post_init__(self) -> None:
        if min(
            self.warehouses_per_partition,
            self.districts_per_warehouse,
            self.customers_per_district,
            self.items,
        ) < 1:
            raise ConfigError("all TPC-C scale factors must be >= 1")

    def total_warehouses(self, num_partitions: int) -> int:
        return self.warehouses_per_partition * num_partitions


# TPC-C 4.3.2.3: last names are concatenations of three syllables.
NAME_SYLLABLES = (
    "BAR", "OUGHT", "ABLE", "PRI", "PRES",
    "ESE", "ANTI", "CALLY", "ATION", "EING",
)


def customer_last_name(number: int) -> str:
    """The TPC-C syllable name for ``number % 1000`` (e.g. 371 -> PRIANTIOUGHT)."""
    digits = f"{number % 1000:03d}"
    return "".join(NAME_SYLLABLES[int(d)] for d in digits)


def _item_price(i: int) -> float:
    """Deterministic stand-in for TPC-C's random item price (1.00-100.00)."""
    return 1.0 + (i * 37 % 9901) / 100.0


def _initial_stock(i: int) -> int:
    """Deterministic stand-in for TPC-C's random initial stock (10-100)."""
    return 10 + (i * 13) % 91


def build_initial_data(
    scale: TpccScale, num_partitions: int, tables: Optional[keys.Tables] = None
) -> Dict[Any, Any]:
    """The full initial key space for ``num_partitions`` partitions,
    keyed by the objects in ``tables`` (the workload passes the tables
    its generator draws from; default: fresh ones)."""
    data: Dict[Any, Any] = {}
    total_warehouses = scale.total_warehouses(num_partitions)
    warehouse, district, customer, item, stock = tables or keys.tables(
        total_warehouses, scale
    )
    for w in range(total_warehouses):
        data[warehouse[w]] = {"ytd": 0.0, "tax": 0.05 + (w % 10) / 200.0}
        for i in range(scale.items):
            data[item[w][i]] = {"price": _item_price(i), "name": f"item-{i}"}
            data[stock[w][i]] = {
                "quantity": _initial_stock(i),
                "ytd": 0,
                "order_cnt": 0,
                "remote_cnt": 0,
            }
        for d in range(scale.districts_per_warehouse):
            data[district[w][d]] = {
                "next_o_id": 1,
                "ytd": 0.0,
                "tax": 0.05 + (d % 10) / 200.0,
                # FIFO of (o_id, ol_cnt) awaiting Delivery.
                "undelivered": (),
                # Last-20 (o_id, ol_cnt), Stock Level's working set.
                "recent": (),
            }
            names = {}
            for c in range(scale.customers_per_district):
                name = customer_last_name(c)
                names.setdefault(name, []).append(c)
                data[customer[w][d][c]] = {
                    "balance": -10.0,
                    "ytd_payment": 10.0,
                    "payment_cnt": 1,
                    "delivery_cnt": 0,
                    "discount": (c % 50) / 100.0,
                    "credit": "GC" if c % 10 else "BC",
                    "last": name,
                }
            for name, ids in names.items():
                data[keys.customer_name_index(w, d, name)] = tuple(sorted(ids))
    return data
