"""Unit and integration tests for the TPC-C workload."""

import random

import pytest

from repro import CalvinDB, ClusterConfig, ConfigError, TxnStatus
from repro.partition import Catalog
from repro.workloads.tpcc import TpccScale, TpccWorkload, build_initial_data, keys


def make_catalog(partitions=2, scale=None):
    workload = TpccWorkload(scale=scale)
    config = ClusterConfig(num_partitions=partitions)
    return Catalog(config, workload.build_partitioner(partitions)), workload


SMALL = TpccScale(warehouses_per_partition=1, customers_per_district=10, items=20)


class TestScaleAndLoader:
    def test_scale_validation(self):
        with pytest.raises(ConfigError):
            TpccScale(items=0)

    def test_total_warehouses(self):
        assert TpccScale(warehouses_per_partition=4).total_warehouses(3) == 12

    def test_loader_contents(self):
        data = build_initial_data(SMALL, num_partitions=2)
        assert keys.warehouse(0) in data and keys.warehouse(1) in data
        assert data[keys.district(0, 3)]["next_o_id"] == 1
        assert data[keys.district(0, 3)]["undelivered"] == ()
        assert data[keys.stock(1, 5)]["quantity"] >= 10
        assert data[keys.item(0, 7)]["price"] > 0

    def test_loader_deterministic(self):
        assert build_initial_data(SMALL, 2) == build_initial_data(SMALL, 2)

    def test_partitioned_by_warehouse(self):
        catalog, _ = make_catalog(2, scale=TpccScale(warehouses_per_partition=2))
        assert catalog.partition_of(keys.stock(1, 5)) == 0
        assert catalog.partition_of(keys.stock(2, 5)) == 1


class TestMixAndGenerate:
    def test_mix_normalized(self):
        workload = TpccWorkload(mix={"new_order": 2, "payment": 2})
        assert workload.mix["new_order"] == pytest.approx(0.5)

    def test_unknown_mix_rejected(self):
        with pytest.raises(ConfigError):
            TpccWorkload(mix={"teleport": 1.0})

    def test_generate_respects_pure_mix(self):
        catalog, workload = make_catalog(2)
        workload = TpccWorkload(mix={"payment": 1.0}, by_name_fraction=0.0)
        rng = random.Random(1)
        for _ in range(20):
            assert workload.generate(rng, 0, catalog).procedure == "payment"

    def test_new_order_footprint_covers_lines(self):
        catalog, _ = make_catalog(1, scale=SMALL)
        workload = TpccWorkload(
            scale=SMALL, mix={"new_order": 1.0}, invalid_item_fraction=0.0
        )
        spec = workload.generate(random.Random(2), 0, catalog)
        args = spec.args
        w, d, o_id = args["w"], args["d"], args["o_id"]
        for number, (item_key, stock_key, line_key, _qty) in enumerate(args["lines"]):
            _, supply_w, item_id = stock_key
            assert item_key == keys.item(w, item_id) and item_key in spec.read_set
            assert stock_key == keys.stock(supply_w, item_id)
            assert stock_key in spec.read_set and stock_key in spec.write_set
            assert line_key == keys.order_line(w, d, o_id, number)
            assert line_key in spec.write_set
        assert args["district"] == keys.district(w, d) and args["district"] in spec.write_set
        assert args["order"] == keys.order(w, d, o_id)
        assert args["last_order"] == keys.customer_last_order(w, d, args["c"])

    def test_order_ids_unique(self):
        catalog, _ = make_catalog(1, scale=SMALL)
        workload = TpccWorkload(scale=SMALL, mix={"new_order": 1.0})
        rng = random.Random(3)
        ids = {workload.generate(rng, 0, catalog).args["o_id"] for _ in range(50)}
        assert len(ids) == 50

    def test_dependent_types_flagged(self):
        catalog, _ = make_catalog(1, scale=SMALL)
        for name in ("order_status", "delivery", "stock_level"):
            workload = TpccWorkload(scale=SMALL, mix={name: 1.0})
            spec = workload.generate(random.Random(1), 0, catalog)
            assert spec.dependent

    def test_warehouse_stays_on_origin_partition(self):
        catalog, _ = make_catalog(4)
        workload = TpccWorkload(mix={"payment": 1.0}, remote_payment_fraction=0.0)
        rng = random.Random(5)
        for _ in range(20):
            spec = workload.generate(rng, 2, catalog)
            assert catalog.partition_of(keys.warehouse(spec.args["w"])) == 2


class TpccDbHarness:
    """Drive individual TPC-C transactions through a tiny CalvinDB."""

    def __init__(self, partitions=1):
        self.partitions = partitions
        self.workload = TpccWorkload(scale=SMALL, invalid_item_fraction=0.0)
        self.db = CalvinDB(
            num_partitions=partitions,
            partitioner=self.workload.build_partitioner(partitions),
            seed=3,
        )
        self.workload.register(self.db.registry)
        self.db.load(build_initial_data(SMALL, partitions))

    def new_order(self, w=0, d=0, c=1, o_id=1000, lines=((2, 0, 3), (4, 0, 1))):
        warehouses = self.partitions * SMALL.warehouses_per_partition
        spec = self.workload.new_order_request(w, d, c, o_id, lines, warehouses)
        return self.db.execute("new_order", spec.args, spec.read_set, spec.write_set)


class TestProcedures:
    def test_new_order_commits_and_updates(self):
        harness = TpccDbHarness()
        before = harness.db.get(keys.stock(0, 2))["quantity"]
        result = harness.new_order()
        assert result.committed
        assert result.value > 0
        district = harness.db.get(keys.district(0, 0))
        assert district["next_o_id"] == 2
        assert district["undelivered"] == ((1000, 2),)
        assert harness.db.get(keys.stock(0, 2))["quantity"] == before - 3
        assert harness.db.get(keys.order(0, 0, 1000))["c_id"] == 1

    def test_new_order_stores_rows_under_its_request_keys(self):
        # The logic builds no key: the order and order-line rows it
        # creates are stored under the very objects the transaction's
        # write set (and so the input log) holds.
        harness = TpccDbHarness()
        assert harness.new_order().committed
        (entry,) = harness.db.cluster.merged_log()
        (txn,) = entry.txns
        created = [key for key in txn.write_set if key[0] in ("order", "order_line")]
        assert len(created) == 3
        stored = {key: key for key in harness.db.final_state()}
        for key in created:
            assert stored[key] is key

    def test_new_order_stock_row_keeps_the_loaders_fields(self):
        # New Order writes each stock row as a literal; a field the
        # loader gains must show here rather than be dropped on write.
        harness = TpccDbHarness()
        loaded = harness.db.get(keys.stock(0, 2))
        assert harness.new_order().committed
        assert list(harness.db.get(keys.stock(0, 2))) == list(loaded)

    def test_new_order_invalid_item_aborts(self):
        harness = TpccDbHarness()
        result = harness.new_order(lines=((2, 0, 3), (-1, 0, 1)))
        assert result.status is TxnStatus.ABORTED
        # Nothing applied: district untouched.
        assert harness.db.get(keys.district(0, 0))["next_o_id"] == 1

    def test_payment_updates_balances(self):
        harness = TpccDbHarness()
        args = {"w": 0, "d": 1, "c_w": 0, "c_d": 1, "c": 2, "amount": 50.0}
        footprint = [keys.warehouse(0), keys.district(0, 1), keys.customer(0, 1, 2)]
        result = harness.db.execute("payment", args, footprint, footprint)
        assert result.committed
        assert harness.db.get(keys.warehouse(0))["ytd"] == 50.0
        assert harness.db.get(keys.customer(0, 1, 2))["balance"] == -60.0

    def test_order_status_reads_last_order(self):
        harness = TpccDbHarness()
        harness.new_order(c=1, o_id=77)
        result = harness.db.execute_dependent(
            "order_status", {"w": 0, "d": 0, "c": 1}
        )
        assert result.committed
        assert result.value["order"]["o_id"] == 77
        assert len(result.value["lines"]) == 2

    def test_order_status_no_orders(self):
        harness = TpccDbHarness()
        result = harness.db.execute_dependent(
            "order_status", {"w": 0, "d": 0, "c": 5}
        )
        assert result.committed
        assert result.value["order"] is None

    def test_delivery_delivers_oldest(self):
        harness = TpccDbHarness()
        harness.new_order(d=0, o_id=100)
        harness.new_order(d=0, o_id=101)
        result = harness.db.execute_dependent(
            "delivery", {"w": 0, "districts": 10, "carrier": 7}
        )
        assert result.committed
        assert result.value == 1  # one district had undelivered orders
        assert harness.db.get(keys.order(0, 0, 100))["carrier"] == 7
        assert harness.db.get(keys.order(0, 0, 101))["carrier"] is None
        assert harness.db.get(keys.district(0, 0))["undelivered"] == ((101, 2),)

    def test_delivery_updates_customer_balance(self):
        harness = TpccDbHarness()
        harness.new_order(c=3, o_id=55, lines=((2, 0, 2),))
        before = harness.db.get(keys.customer(0, 0, 3))["balance"]
        harness.db.execute_dependent("delivery", {"w": 0, "districts": 10, "carrier": 1})
        customer = harness.db.get(keys.customer(0, 0, 3))
        assert customer["balance"] > before
        assert customer["delivery_cnt"] == 1

    def test_delivery_on_empty_warehouse(self):
        harness = TpccDbHarness()
        result = harness.db.execute_dependent(
            "delivery", {"w": 0, "districts": 10, "carrier": 2}
        )
        assert result.committed
        assert result.value == 0

    def test_stock_level_counts_low_stock(self):
        harness = TpccDbHarness()
        harness.new_order(o_id=60, lines=((2, 0, 3), (4, 0, 2)))
        result = harness.db.execute_dependent(
            "stock_level", {"w": 0, "d": 0, "threshold": 1000}
        )
        assert result.committed
        assert result.value == 2  # both items below an absurd threshold

    def test_stock_level_zero_when_threshold_low(self):
        harness = TpccDbHarness()
        harness.new_order(o_id=61, lines=((2, 0, 1),))
        result = harness.db.execute_dependent(
            "stock_level", {"w": 0, "d": 0, "threshold": 0}
        )
        assert result.committed
        assert result.value == 0

    def test_remote_stock_update_multipartition(self):
        harness = TpccDbHarness(partitions=2)
        # Warehouse 0 order supplied by warehouse 1 (partition 1).
        result = harness.new_order(lines=((2, 1, 3),))
        assert result.committed
        assert harness.db.get(keys.stock(1, 2))["remote_cnt"] == 1


class TestByNameTransactions:
    def test_last_name_generator(self):
        from repro.workloads.tpcc.loader import customer_last_name

        assert customer_last_name(0) == "BARBARBAR"
        assert customer_last_name(371) == "PRICALLYOUGHT"
        assert customer_last_name(1371) == "PRICALLYOUGHT"  # mod 1000

    def test_name_index_loaded(self):
        data = build_initial_data(SMALL, num_partitions=1)
        from repro.workloads.tpcc.loader import customer_last_name

        index = data[keys.customer_name_index(0, 0, customer_last_name(3))]
        assert 3 in index
        # Every customer appears in exactly one index entry.
        total = sum(
            len(ids) for key, ids in data.items()
            if key[0] == "customer_name_idx" and key[1] == 0 and key[2] == 0
        )
        assert total == SMALL.customers_per_district

    def test_payment_by_name_commits(self):
        harness = TpccDbHarness()
        from repro.workloads.tpcc.loader import customer_last_name

        name = customer_last_name(3)
        args = {"w": 0, "d": 0, "c_w": 0, "c_d": 0, "last": name, "amount": 25.0}
        result = harness.db.execute_dependent("payment_by_name", args)
        assert result.committed
        assert harness.db.get(keys.warehouse(0))["ytd"] == 25.0
        # The chosen customer is the middle one of the matching ids.
        index = harness.db.get(keys.customer_name_index(0, 0, name))
        chosen = index[len(index) // 2]
        assert harness.db.get(keys.customer(0, 0, chosen))["payment_cnt"] == 2

    def test_payment_by_unknown_name_aborts(self):
        harness = TpccDbHarness()
        args = {"w": 0, "d": 0, "c_w": 0, "c_d": 0, "last": "NOSUCHNAME", "amount": 5.0}
        result = harness.db.execute_dependent("payment_by_name", args)
        assert result.status is TxnStatus.ABORTED

    def test_order_status_by_name(self):
        harness = TpccDbHarness()
        from repro.workloads.tpcc.loader import customer_last_name

        name = customer_last_name(1)
        index = harness.db.get(keys.customer_name_index(0, 0, name))
        chosen = index[len(index) // 2]
        harness.new_order(c=chosen, o_id=88)
        result = harness.db.execute_dependent(
            "order_status_by_name", {"w": 0, "d": 0, "last": name}
        )
        assert result.committed
        assert result.value["order"]["o_id"] == 88

    def test_generator_emits_by_name_variants(self):
        catalog, _ = make_catalog(1, scale=SMALL)
        workload = TpccWorkload(
            scale=SMALL, mix={"payment": 0.5, "order_status": 0.5},
            by_name_fraction=1.0,
        )
        rng = random.Random(7)
        procedures = {workload.generate(rng, 0, catalog).procedure for _ in range(30)}
        assert procedures == {"payment_by_name", "order_status_by_name"}

    def test_full_mix_with_names_serializable(self):
        from repro import ClusterConfig, check_serializability
        from tests.conftest import run_bounded_cluster

        workload = TpccWorkload(scale=SMALL)
        cluster = run_bounded_cluster(
            workload, ClusterConfig(num_partitions=2, seed=19),
            clients_per_partition=8, max_txns=15,
        )
        assert check_serializability(cluster) > 0
