"""TPC-C stored procedures: logic, reconnaissance, recheck.

Record values are treated as immutable — every write constructs a fresh
dict (``{**old, ...}``, or a literal when every field changes), never
mutates one read from the store, because stores hand out references and
replicas compare raw contents.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Tuple

from repro.txn.context import TxnContext
from repro.txn.ollp import Footprint
from repro.txn.procedures import Procedure, ProcedureRegistry
from repro.workloads.tpcc import keys

ReadFn = Callable[[Any], Any]

# Recent-orders window kept per district for Stock Level.
RECENT_ORDERS = 20


# ---------------------------------------------------------------------------
# New Order (independent: footprint computed client-side, o_id pre-assigned)
# ---------------------------------------------------------------------------

def new_order_logic(ctx: TxnContext) -> float:
    # Every key comes from the request (TpccWorkload.new_order_request),
    # the same objects its footprint holds; each line is (item key,
    # stock key, order-line key, quantity).
    args = ctx.args
    read, write = ctx.read, ctx.write
    w, o_id = args["w"], args["o_id"]
    lines = args["lines"]

    warehouse = read(args["warehouse"])
    district_key = args["district"]
    district = read(district_key)
    customer = read(args["customer"])

    # TPC-C's 1% deterministic rollback: an unused item id was supplied.
    items = []
    for item_key, _stock_key, _line_key, _qty in lines:
        item = read(item_key)
        if item is None:
            ctx.abort("invalid item id")
        items.append(item)

    ol_cnt = len(lines)
    entry = (o_id, ol_cnt)
    write(
        district_key,
        {
            **district,
            "next_o_id": district["next_o_id"] + 1,
            "undelivered": district["undelivered"] + (entry,),
            "recent": (district["recent"] + (entry,))[-RECENT_ORDERS:],
        },
    )

    total = 0.0
    for (_item_key, stock_key, line_key, qty), item in zip(lines, items):
        _, supply_w, item_id = stock_key
        stock = read(stock_key)
        quantity = stock["quantity"] - qty
        if quantity < 10:
            quantity += 91
        # Every field is replaced: a fresh row in the loader's field order.
        write(
            stock_key,
            {
                "quantity": quantity,
                "ytd": stock["ytd"] + qty,
                "order_cnt": stock["order_cnt"] + 1,
                "remote_cnt": stock["remote_cnt"] + (1 if supply_w != w else 0),
            },
        )
        amount = qty * item["price"]
        total += amount
        write(
            line_key,
            {
                "i_id": item_id,
                "supply_w": supply_w,
                "qty": qty,
                "amount": amount,
                "delivery_d": None,
            },
        )

    write(args["order"], {"c_id": args["c"], "carrier": None, "ol_cnt": ol_cnt})
    write(args["last_order"], entry)
    total *= (1.0 - customer["discount"]) * (1.0 + warehouse["tax"] + district["tax"])
    return round(total, 2)


# ---------------------------------------------------------------------------
# Payment (independent)
# ---------------------------------------------------------------------------

def _apply_payment(
    ctx: TxnContext, w: int, d: int, c_w: int, c_d: int, c: int, amount: float
) -> float:
    warehouse = ctx.read(keys.warehouse(w))
    ctx.write(keys.warehouse(w), {**warehouse, "ytd": warehouse["ytd"] + amount})
    district = ctx.read(keys.district(w, d))
    ctx.write(keys.district(w, d), {**district, "ytd": district["ytd"] + amount})
    customer = ctx.read(keys.customer(c_w, c_d, c))
    balance = customer["balance"] - amount
    ctx.write(
        keys.customer(c_w, c_d, c),
        {
            **customer,
            "balance": balance,
            "ytd_payment": customer["ytd_payment"] + amount,
            "payment_cnt": customer["payment_cnt"] + 1,
        },
    )
    return balance


def payment_logic(ctx: TxnContext) -> float:
    args = ctx.args
    return _apply_payment(
        ctx, args["w"], args["d"], args["c_w"], args["c_d"], args["c"],
        args["amount"],
    )


# ---------------------------------------------------------------------------
# Payment by last name (dependent: TPC-C 2.5.2.2, 60% of Payments)
# ---------------------------------------------------------------------------

def _chosen_customer(ids: Tuple[int, ...]) -> int:
    """TPC-C: the ceil(n/2)-th customer (0-indexed: position n//2)."""
    return ids[len(ids) // 2]


def payment_by_name_reconnoiter(read_fn: ReadFn, args: Dict) -> Footprint:
    index_key = keys.customer_name_index(args["c_w"], args["c_d"], args["last"])
    ids = read_fn(index_key) or ()
    reads = [keys.warehouse(args["w"]), keys.district(args["w"], args["d"]), index_key]
    writes = reads[:2]
    if ids:
        customer_key = keys.customer(args["c_w"], args["c_d"], _chosen_customer(ids))
        reads.append(customer_key)
        writes.append(customer_key)
    return Footprint.create(reads, writes, token=tuple(ids))


def payment_by_name_recheck(ctx: TxnContext) -> bool:
    args = ctx.args
    index_key = keys.customer_name_index(args["c_w"], args["c_d"], args["last"])
    return tuple(ctx.read(index_key) or ()) == ctx.txn.footprint_token


def payment_by_name_logic(ctx: TxnContext) -> float:
    args = ctx.args
    index_key = keys.customer_name_index(args["c_w"], args["c_d"], args["last"])
    ids = ctx.read(index_key) or ()
    if not ids:
        ctx.abort("no customer with that last name")
    return _apply_payment(
        ctx, args["w"], args["d"], args["c_w"], args["c_d"],
        _chosen_customer(ids), args["amount"],
    )


# ---------------------------------------------------------------------------
# Order Status (dependent, read-only)
# ---------------------------------------------------------------------------

def order_status_reconnoiter(read_fn: ReadFn, args: Dict) -> Footprint:
    w, d, c = args["w"], args["d"], args["c"]
    pointer_key = keys.customer_last_order(w, d, c)
    pointer = read_fn(pointer_key)
    reads = [keys.customer(w, d, c), pointer_key]
    if pointer is not None:
        o_id, ol_cnt = pointer
        reads.append(keys.order(w, d, o_id))
        reads += (keys.order_line(w, d, o_id, n) for n in range(ol_cnt))
    return Footprint.create(reads, (), token=pointer)


def order_status_recheck(ctx: TxnContext) -> bool:
    args = ctx.args
    pointer_key = keys.customer_last_order(args["w"], args["d"], args["c"])
    return ctx.read(pointer_key) == ctx.txn.footprint_token


def _order_status(ctx: TxnContext, w: int, d: int, c: int) -> Dict:
    customer = ctx.read(keys.customer(w, d, c))
    pointer = ctx.read(keys.customer_last_order(w, d, c))
    if pointer is None:
        return {"balance": customer["balance"], "order": None, "lines": ()}
    o_id, ol_cnt = pointer
    order = ctx.read(keys.order(w, d, o_id))
    lines = tuple(
        ctx.read(keys.order_line(w, d, o_id, n)) for n in range(ol_cnt)
    )
    return {
        "balance": customer["balance"],
        "order": {"o_id": o_id, "carrier": order["carrier"]},
        "lines": tuple(
            {"i_id": line["i_id"], "qty": line["qty"], "amount": line["amount"]}
            for line in lines
        ),
    }


def order_status_logic(ctx: TxnContext) -> Dict:
    args = ctx.args
    return _order_status(ctx, args["w"], args["d"], args["c"])


# ---------------------------------------------------------------------------
# Order Status by last name (dependent, read-only; TPC-C 2.6.2.2)
# ---------------------------------------------------------------------------

def order_status_by_name_reconnoiter(read_fn: ReadFn, args: Dict) -> Footprint:
    w, d = args["w"], args["d"]
    index_key = keys.customer_name_index(w, d, args["last"])
    ids = read_fn(index_key) or ()
    reads = [index_key]
    pointer = None
    if ids:
        c = _chosen_customer(ids)
        pointer_key = keys.customer_last_order(w, d, c)
        pointer = read_fn(pointer_key)
        reads += (keys.customer(w, d, c), pointer_key)
        if pointer is not None:
            o_id, ol_cnt = pointer
            reads.append(keys.order(w, d, o_id))
            reads += (keys.order_line(w, d, o_id, n) for n in range(ol_cnt))
    return Footprint.create(reads, (), token=(tuple(ids), pointer))


def order_status_by_name_recheck(ctx: TxnContext) -> bool:
    args = ctx.args
    w, d = args["w"], args["d"]
    ids_token, pointer_token = ctx.txn.footprint_token
    index_key = keys.customer_name_index(w, d, args["last"])
    ids = tuple(ctx.read(index_key) or ())
    if ids != ids_token:
        return False
    if not ids:
        return pointer_token is None
    c = _chosen_customer(ids)
    return ctx.read(keys.customer_last_order(w, d, c)) == pointer_token


def order_status_by_name_logic(ctx: TxnContext) -> Dict:
    args = ctx.args
    w, d = args["w"], args["d"]
    ids = ctx.read(keys.customer_name_index(w, d, args["last"])) or ()
    if not ids:
        ctx.abort("no customer with that last name")
    return _order_status(ctx, w, d, _chosen_customer(ids))


# ---------------------------------------------------------------------------
# Delivery (dependent: footprint is the oldest undelivered order per district)
# ---------------------------------------------------------------------------

def delivery_reconnoiter(read_fn: ReadFn, args: Dict) -> Footprint:
    w, districts = args["w"], args["districts"]
    reads, writes, heads = [], [], []
    for d in range(districts):
        district_key = keys.district(w, d)
        reads.append(district_key)
        district = read_fn(district_key)
        queue = district["undelivered"] if district else ()
        if not queue:
            # Empty queue: the logic only reads the district and moves
            # on, so no write lock — declaring one anyway (as this used
            # to) showed up in the footprint audit as ~6% over-declared
            # delivery writes, pure contention on the hottest keys. If
            # the queue gains a head before execution, the token check
            # in delivery_recheck restarts the transaction.
            heads.append(None)
            continue
        writes.append(district_key)
        o_id, ol_cnt = queue[0]
        heads.append((o_id, ol_cnt))
        order_key = keys.order(w, d, o_id)
        order = read_fn(order_key)
        customer_key = keys.customer(w, d, order["c_id"] if order else 0)
        rows = [order_key, customer_key]
        rows += (keys.order_line(w, d, o_id, n) for n in range(ol_cnt))
        reads += rows
        writes += rows
    return Footprint.create(reads, writes, token=tuple(heads))


def delivery_recheck(ctx: TxnContext) -> bool:
    args = ctx.args
    w, districts = args["w"], args["districts"]
    token = ctx.txn.footprint_token
    for d in range(districts):
        district = ctx.read(keys.district(w, d))
        queue = district["undelivered"] if district else ()
        head = queue[0] if queue else None
        if head != token[d]:
            return False
    return True


def delivery_logic(ctx: TxnContext) -> int:
    args = ctx.args
    w, districts, carrier = args["w"], args["districts"], args["carrier"]
    delivered = 0
    for d in range(districts):
        district_key = keys.district(w, d)
        district = ctx.read(district_key)
        queue = district["undelivered"]
        if not queue:
            continue
        o_id, ol_cnt = queue[0]
        ctx.write(district_key, {**district, "undelivered": queue[1:]})
        order_key = keys.order(w, d, o_id)
        order = ctx.read(order_key)
        ctx.write(order_key, {**order, "carrier": carrier})
        total = 0.0
        for n in range(ol_cnt):
            line_key = keys.order_line(w, d, o_id, n)
            line = ctx.read(line_key)
            total += line["amount"]
            ctx.write(line_key, {**line, "delivery_d": carrier})
        customer_key = keys.customer(w, d, order["c_id"])
        customer = ctx.read(customer_key)
        ctx.write(
            customer_key,
            {
                **customer,
                "balance": customer["balance"] + total,
                "delivery_cnt": customer["delivery_cnt"] + 1,
            },
        )
        delivered += 1
    return delivered


# ---------------------------------------------------------------------------
# Stock Level (dependent, read-only, two-hop reconnaissance)
# ---------------------------------------------------------------------------

def stock_level_reconnoiter(read_fn: ReadFn, args: Dict) -> Footprint:
    w, d = args["w"], args["d"]
    district_key = keys.district(w, d)
    district = read_fn(district_key)
    recent = district["recent"] if district else ()
    reads = [district_key]
    for o_id, ol_cnt in recent:
        for n in range(ol_cnt):
            line_key = keys.order_line(w, d, o_id, n)
            reads.append(line_key)
            line = read_fn(line_key)
            if line is not None:
                reads.append(keys.stock(line["supply_w"], line["i_id"]))
    return Footprint.create(reads, (), token=recent)


def stock_level_recheck(ctx: TxnContext) -> bool:
    args = ctx.args
    district = ctx.read(keys.district(args["w"], args["d"]))
    return district["recent"] == ctx.txn.footprint_token


def stock_level_logic(ctx: TxnContext) -> int:
    args = ctx.args
    w, d, threshold = args["w"], args["d"], args["threshold"]
    district = ctx.read(keys.district(w, d))
    low_items = set()
    for o_id, ol_cnt in district["recent"]:
        for n in range(ol_cnt):
            line = ctx.read(keys.order_line(w, d, o_id, n))
            if line is None:
                continue
            stock = ctx.read(keys.stock(line["supply_w"], line["i_id"]))
            if stock is not None and stock["quantity"] < threshold:
                low_items.add((line["supply_w"], line["i_id"]))
    return len(low_items)


# ---------------------------------------------------------------------------
# Registration
# ---------------------------------------------------------------------------

def register_procedures(registry: ProcedureRegistry) -> None:
    """Install all five TPC-C procedures."""
    registry.register(Procedure("new_order", new_order_logic, logic_cpu=120e-6))
    registry.register(Procedure("payment", payment_logic, logic_cpu=40e-6))
    registry.register(
        Procedure(
            "payment_by_name",
            payment_by_name_logic,
            logic_cpu=45e-6,
            reconnoiter=payment_by_name_reconnoiter,
            recheck=payment_by_name_recheck,
        )
    )
    registry.register(
        Procedure(
            "order_status",
            order_status_logic,
            logic_cpu=30e-6,
            reconnoiter=order_status_reconnoiter,
            recheck=order_status_recheck,
        )
    )
    registry.register(
        Procedure(
            "order_status_by_name",
            order_status_by_name_logic,
            logic_cpu=35e-6,
            reconnoiter=order_status_by_name_reconnoiter,
            recheck=order_status_by_name_recheck,
        )
    )
    registry.register(
        Procedure(
            "delivery",
            delivery_logic,
            logic_cpu=150e-6,
            reconnoiter=delivery_reconnoiter,
            recheck=delivery_recheck,
        )
    )
    registry.register(
        Procedure(
            "stock_level",
            stock_level_logic,
            logic_cpu=100e-6,
            reconnoiter=stock_level_reconnoiter,
            recheck=stock_level_recheck,
        )
    )
