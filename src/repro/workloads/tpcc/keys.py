"""TPC-C key constructors.

Every key is a tuple whose second element is the owning warehouse id, so
warehouse-based partitioning is a lookup of ``key[1]``. Values are plain
dicts treated as immutable: procedures always write fresh dicts, never
mutate a read value (stores hand out references, not copies).
"""

from __future__ import annotations

from typing import List, Tuple

Key = Tuple

# (warehouse[w], district[w][d], customer[w][d][c], item[w][i],
# stock[w][i]): every key of the five preloaded tables, built once.
Tables = Tuple[
    List[Key], List[List[Key]], List[List[List[Key]]], List[List[Key]], List[List[Key]]
]


def warehouse(w: int) -> Key:
    return ("warehouse", w)


def district(w: int, d: int) -> Key:
    return ("district", w, d)


def customer(w: int, d: int, c: int) -> Key:
    return ("customer", w, d, c)


def item(w: int, i: int) -> Key:
    """The ITEM table is read-only and replicated per warehouse (w's copy)."""
    return ("item", w, i)


def stock(w: int, i: int) -> Key:
    return ("stock", w, i)


def order(w: int, d: int, o: int) -> Key:
    return ("order", w, d, o)


def order_line(w: int, d: int, o: int, number: int) -> Key:
    return ("order_line", w, d, o, number)


def customer_last_order(w: int, d: int, c: int) -> Key:
    """Pointer maintained by New Order; Order Status's reconnaissance target."""
    return ("customer_last_order", w, d, c)


def customer_name_index(w: int, d: int, name: str) -> Key:
    """Secondary index: last name -> sorted tuple of customer ids.

    Static after load (no customer churn), maintained by the loader;
    Payment/Order-Status by last name reconnoiter through it (TPC-C
    2.5.2.2: pick the ceil(n/2)-th customer by that name)."""
    return ("customer_name_idx", w, d, name)


def tables(warehouses: int, scale) -> Tables:
    """The key objects of every row the loader creates for
    ``warehouses`` warehouses at ``scale`` (a ``TpccScale``), indexable
    by the ids a request draws. The loader stores these objects and the
    generator hands the same ones out, so a logged footprint adds no
    key storage for a preloaded row (rows created later — orders, order
    lines, last-order pointers — and the invalid item id still go
    through the constructors above)."""
    districts = scale.districts_per_warehouse
    customers = scale.customers_per_district
    items = scale.items
    return (
        [warehouse(w) for w in range(warehouses)],
        [[district(w, d) for d in range(districts)] for w in range(warehouses)],
        [
            [[customer(w, d, c) for c in range(customers)] for d in range(districts)]
            for w in range(warehouses)
        ],
        [[item(w, i) for i in range(items)] for w in range(warehouses)],
        [[stock(w, i) for i in range(items)] for w in range(warehouses)],
    )
