"""Unit tests for RNG streams and measurement helpers."""

import random

import pytest

from repro.sim import Counter, LatencySample, RngStreams, ThroughputSeries
from repro.sim.rng import below, sample

_SEEDS = range(200)
# Both set-size thresholds of Random.sample are crossed: 21 for k <= 5,
# 21 + 64 = 85 for 6 <= k <= 12.
_SIZES = (1, 2, 3, 7, 8, 9, 21, 22, 85, 86, 1000, 1024, 1025, 10_000)


class TestRngStreams:
    def test_same_seed_same_draws(self):
        a = RngStreams(1).stream("client", 3)
        b = RngStreams(1).stream("client", 3)
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_names_independent(self):
        streams = RngStreams(1)
        a = [streams.stream("x").random() for _ in range(3)]
        b = [streams.stream("y").random() for _ in range(3)]
        assert a != b

    def test_different_seeds_differ(self):
        assert RngStreams(1).stream("s").random() != RngStreams(2).stream("s").random()

    def test_stream_cached(self):
        streams = RngStreams(1)
        assert streams.stream("a", 1) is streams.stream("a", 1)

    def test_consumer_isolation(self):
        # Adding a new stream must not perturb draws from existing ones.
        solo = RngStreams(9)
        values_solo = [solo.stream("main").random() for _ in range(4)]
        shared = RngStreams(9)
        shared.stream("other").random()
        values_shared = [shared.stream("main").random() for _ in range(4)]
        assert values_solo == values_shared

    def test_fork_independent(self):
        parent = RngStreams(5)
        child = parent.fork("sub")
        assert parent.stream("s").random() != child.stream("s").random()


class TestExactStreamDraws:
    """``below`` and ``sample`` return the stdlib's values and leave the
    stream where the stdlib leaves it: a change to CPython's ``random``
    fails here, not in a digest."""

    @staticmethod
    def _pair(seed):
        return random.Random(seed), random.Random(seed)

    def test_below_is_randrange_and_randint(self):
        for seed in _SEEDS:
            for n in _SIZES:
                stdlib, ours = self._pair(seed)
                assert below(ours.getrandbits, n) == stdlib.randrange(n)
                assert ours.random() == stdlib.random()
                assert 5 + below(ours.getrandbits, n) == stdlib.randint(5, 4 + n)
                assert ours.random() == stdlib.random()

    def test_sample_is_random_sample(self):
        for seed in _SEEDS:
            for n in _SIZES:
                population = [("key", i) for i in range(n)]
                for k in range(min(n, 12) + 1):
                    stdlib, ours = self._pair(seed)
                    assert sample(ours, population, k) == stdlib.sample(population, k)
                    assert ours.random() == stdlib.random()


class TestCounter:
    def test_increment(self):
        counter = Counter("n")
        counter.increment()
        counter.increment(4)
        assert counter.value == 5


class TestLatencySample:
    def test_empty_defaults(self):
        sample = LatencySample()
        assert sample.mean == 0.0
        assert sample.percentile(99) == 0.0
        assert len(sample) == 0

    def test_mean(self):
        sample = LatencySample()
        for value in (1.0, 2.0, 3.0):
            sample.add(value)
        assert sample.mean == pytest.approx(2.0)

    def test_percentiles_nearest_rank(self):
        sample = LatencySample()
        for value in range(1, 101):
            sample.add(float(value))
        assert sample.percentile(50) == 50.0
        assert sample.percentile(99) == 99.0
        assert sample.percentile(100) == 100.0

    def test_percentile_after_more_adds(self):
        sample = LatencySample()
        sample.add(5.0)
        assert sample.percentile(50) == 5.0
        sample.add(1.0)
        assert sample.percentile(50) == 1.0

    def test_percentile_range_checked(self):
        sample = LatencySample()
        sample.add(1.0)
        with pytest.raises(ValueError):
            sample.percentile(101)

    def test_min_max(self):
        sample = LatencySample()
        for value in (3.0, 1.0, 2.0):
            sample.add(value)
        assert sample.minimum == 1.0
        assert sample.maximum == 3.0


class TestThroughputSeries:
    def test_rate_over_window(self):
        series = ThroughputSeries(bucket_width=0.1)
        for i in range(10):
            series.record(i * 0.05)  # 10 events over 0.5s
        assert series.rate(0.0, 0.5) == pytest.approx(20.0)

    def test_series_includes_empty_buckets(self):
        series = ThroughputSeries(bucket_width=0.1)
        series.record(0.05)
        series.record(0.35)
        rows = series.series(end_time=0.4)
        assert len(rows) == 5
        assert rows[1][1] == 0.0  # empty bucket visible

    def test_invalid_bucket_width(self):
        with pytest.raises(ValueError):
            ThroughputSeries(bucket_width=0.0)

    def test_total(self):
        series = ThroughputSeries()
        series.record(0.0, count=3)
        series.record(1.0)
        assert series.total == 4
