"""Unit tests for the input log, simulated disk, warm set and engine."""

import pytest

from repro.config import CostModel
from repro.errors import StorageError
from repro.sim import RngStreams, Simulator
from repro.storage import InputLog, LogEntry, SimulatedDisk, StorageEngine
from repro.txn.transaction import Transaction


def make_txn(txn_id=1):
    return Transaction.create(txn_id, "p", None, [("k", 0)], [("k", 0)])


def make_engine(disk_enabled=True, jitter=0.0):
    sim = Simulator()
    engine = StorageEngine(
        sim, 0, CostModel(disk_latency_jitter=jitter), RngStreams(1).stream("d"),
        disk_enabled=disk_enabled,
        cold_predicate=lambda key: key[0] == "arch",
    )
    return sim, engine


class TestInputLog:
    def test_append_and_iterate(self):
        log = InputLog()
        log.append(LogEntry(0, 0, (make_txn(1),)))
        log.append(LogEntry(0, 1))
        log.append(LogEntry(1, 0))
        assert len(log) == 3
        assert log.last_epoch == 1
        assert log.total_transactions() == 1

    def test_out_of_order_rejected(self):
        log = InputLog()
        log.append(LogEntry(2, 0))
        with pytest.raises(StorageError):
            log.append(LogEntry(1, 0))

    def test_entries_from(self):
        log = InputLog()
        for epoch in range(5):
            log.append(LogEntry(epoch, 0))
        assert [e.epoch for e in log.entries_from(3)] == [3, 4]

    def test_truncate_before(self):
        log = InputLog()
        for epoch in range(5):
            log.append(LogEntry(epoch, 0))
        dropped = log.truncate_before(2)
        assert dropped == 2
        assert [e.epoch for e in log] == [2, 3, 4]

    def test_negative_epoch_rejected(self):
        with pytest.raises(StorageError):
            LogEntry(-1, 0)

    def test_empty_log(self):
        log = InputLog()
        assert log.last_epoch == -1
        assert log.entries_from(0) == []


class TestWarmCache:
    """The engine's set of fetched cold keys."""

    def test_admit_and_contains(self):
        sim, engine = make_engine()
        engine.fetch(("arch", 1))
        sim.run()
        assert ("arch", 1) in engine.warm
        assert len(engine.warm) == 1

    def test_readmit_no_duplicate(self):
        sim, engine = make_engine()
        engine.fetch(("arch", 1))
        engine.fetch(("arch", 1))
        sim.run()
        assert engine.prefetches == 2
        assert len(engine.warm) == 1


class TestSimulatedDisk:
    def make_disk(self, parallelism=2):
        sim = Simulator()
        costs = CostModel(
            disk_latency_mean=0.01, disk_latency_jitter=0.0, disk_parallelism=parallelism
        )
        return sim, SimulatedDisk(sim, RngStreams(1).stream("disk"), costs)

    def test_fetch_latency(self):
        sim, disk = self.make_disk()
        event = disk.fetch("k")
        sim.run()
        assert event.triggered
        assert sim.now == pytest.approx(0.01)

    def test_parallelism_bound(self):
        sim, disk = self.make_disk(parallelism=2)
        events = [disk.fetch(("k", i)) for i in range(4)]
        sim.run()
        assert all(e.triggered for e in events)
        # 4 fetches over 2 slots at 10ms each -> 20ms total.
        assert sim.now == pytest.approx(0.02)
        assert disk.fetches == 4

    def test_jitter_bounded(self):
        sim = Simulator()
        costs = CostModel(disk_latency_mean=0.01, disk_latency_jitter=0.002)
        disk = SimulatedDisk(sim, RngStreams(7).stream("disk"), costs)
        for _ in range(50):
            latency = disk.access_latency()
            assert 0.008 <= latency <= 0.012
        assert disk.expected_latency() == 0.01


class TestStorageEngine:
    def test_cold_detection(self):
        _sim, engine = make_engine()
        assert engine.is_cold(("arch", 1))
        assert not engine.is_cold(("hot", 1))

    def test_fetch_warms_key(self):
        sim, engine = make_engine()
        engine.fetch(("arch", 1))
        sim.run()
        assert not engine.is_cold(("arch", 1))

    def test_disk_disabled_everything_warm(self):
        _sim, engine = make_engine(disk_enabled=False)
        assert not engine.is_cold(("arch", 1))

    def test_cold_keys_of(self):
        _sim, engine = make_engine()
        keys = [("arch", 1), ("hot", 2), ("arch", 3)]
        assert engine.cold_keys_of(keys) == [("arch", 1), ("arch", 3)]

    def test_cold_keys_are_fetched_and_admitted_in_repr_order(self):
        # A footprint keeps its declared order, but the disk must not:
        # fetch order decides the latency draws and the completion order.
        outcomes = []
        for declared in ([("arch", 10), ("arch", 9)], [("arch", 9), ("arch", 10)]):
            sim, engine = make_engine(jitter=0.004)
            cold = engine.cold_keys_of(declared)
            admitted = []
            for key in cold:
                engine.fetch(key).add_callback(lambda _event, key=key: admitted.append(key))
            sim.run()
            outcomes.append((cold, admitted, sim.now))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == [("arch", 10), ("arch", 9)]  # repr order

    def test_expected_latency_error(self):
        _sim, engine = make_engine()
        assert engine.expected_fetch_latency(0.0) == pytest.approx(0.01)
        assert engine.expected_fetch_latency(0.5) == pytest.approx(0.005)
