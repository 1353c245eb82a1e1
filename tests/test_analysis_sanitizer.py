"""Runtime determinism sanitizer: trips inside, restores outside.

The sanitizer's contract is sharp in both directions — every patched
entropy/wall-clock source raises :class:`DeterminismViolation` while a
sanitized region is active, and the process is bit-for-bit unaffected
once it exits (the golden-digest equivalence test at the bottom is the
"no false positives, no behaviour change" gate).
"""

import os
import random
import secrets
import time
import uuid

import pytest

from repro import (
    CalvinCluster,
    ClientProfile,
    ClusterConfig,
    DeterminismSanitizer,
    DeterminismViolation,
    Microbenchmark,
    TraceRecorder,
)
from repro.analysis.sanitizer import sanitizer_active
from repro.sim import Simulator


class TestTripWires:
    def test_random_module_functions_trip(self):
        with DeterminismSanitizer():
            for fn in (
                random.random,
                lambda: random.randint(1, 6),
                lambda: random.uniform(0.0, 1.0),
                lambda: random.choice([1, 2]),
                lambda: random.shuffle([1, 2]),
                lambda: random.seed(7),
                lambda: random.getrandbits(8),
                lambda: random.randbytes(4),
                random.getstate,
            ):
                with pytest.raises(DeterminismViolation):
                    fn()

    def test_wall_clock_trips(self):
        with DeterminismSanitizer():
            with pytest.raises(DeterminismViolation):
                time.time()
            with pytest.raises(DeterminismViolation):
                time.monotonic()

    def test_entropy_trips(self):
        with DeterminismSanitizer():
            for fn in (
                uuid.uuid4,
                lambda: os.urandom(8),
                lambda: random.SystemRandom().random(),
                lambda: secrets.token_hex(4),
                lambda: secrets.randbelow(10),
            ):
                with pytest.raises(DeterminismViolation):
                    fn()

    def test_unseeded_generator_trips(self):
        with DeterminismSanitizer():
            with pytest.raises(DeterminismViolation, match="unseeded"):
                random.Random()
            with pytest.raises(DeterminismViolation):
                random.Random(7).seed()

    def test_environment_trips(self):
        with DeterminismSanitizer():
            for fn in (
                lambda: os.environ["PATH"],
                lambda: "PATH" in os.environ,
                lambda: os.getenv("PATH"),
                lambda: dict(os.environ),
            ):
                with pytest.raises(DeterminismViolation, match="os.environ"):
                    fn()

    def test_violation_message_names_the_call(self):
        with DeterminismSanitizer():
            with pytest.raises(DeterminismViolation, match="time.time"):
                time.time()

    def test_seeded_streams_unaffected(self):
        # A seeded random.Random owns its state and draws the same
        # numbers in every process, wherever it is built; only the
        # hidden module-global instance and host-seeded ones are hazards.
        with DeterminismSanitizer():
            a = random.Random(42).random()
            b = random.Random(42).random()
        assert a == b == random.Random(42).random()

    def test_perf_counter_unaffected(self):
        # The perf harness times the simulator from the outside.
        with DeterminismSanitizer():
            assert time.perf_counter() >= 0.0


class TestLifecycle:
    def test_restored_after_exit(self):
        before = time.time, os.environ, random.Random.seed
        with DeterminismSanitizer():
            pass
        assert (time.time, os.environ, random.Random.seed) == before
        assert os.environ is before[1]
        assert isinstance(random.Random().random(), float)
        assert isinstance(random.random(), float)
        assert time.time() > 0

    def test_restored_after_exception(self):
        with pytest.raises(RuntimeError):
            with DeterminismSanitizer():
                raise RuntimeError("boom")
        assert isinstance(random.random(), float)

    def test_nested_contexts_refcount(self):
        outer = DeterminismSanitizer()
        inner = DeterminismSanitizer()
        with outer:
            with inner:
                assert sanitizer_active()
                with pytest.raises(DeterminismViolation):
                    random.random()
            # Still armed: the outer region has not ended.
            assert sanitizer_active()
            with pytest.raises(DeterminismViolation):
                random.random()
        assert not sanitizer_active()
        assert isinstance(random.random(), float)

    def test_context_manager_is_reentrant_object(self):
        sanitizer = DeterminismSanitizer()
        for _ in range(2):
            with sanitizer:
                with pytest.raises(DeterminismViolation):
                    random.random()
        assert isinstance(random.random(), float)


class TestSimulatorIntegration:
    def test_sanitized_run_trips_on_ambient_randomness(self):
        sim = Simulator(sanitize=True)
        sim.schedule(0.0, lambda: random.random())
        with pytest.raises(DeterminismViolation):
            sim.run()
        # The kernel disarms even on failure.
        assert isinstance(random.random(), float)

    def test_sanitized_run_of_clean_model_passes(self):
        sim = Simulator(sanitize=True)
        hits = []
        sim.schedule(0.5, hits.append, 1)
        sim.run()
        assert hits == [1]
        assert not sanitizer_active()


def _digest(sanitize):
    config = ClusterConfig(num_partitions=2, seed=99, sanitize=sanitize)
    tracer = TraceRecorder()
    cluster = CalvinCluster(
        config,
        workload=Microbenchmark(
            mp_fraction=0.3, hot_set_size=10, cold_set_size=100
        ),
        tracer=tracer,
    )
    cluster.load_workload_data()
    cluster.add_clients(ClientProfile(per_partition=2, max_txns=8))
    cluster.run(duration=0.2)
    cluster.quiesce()
    return tracer.digest()


def test_sanitizer_does_not_perturb_the_simulation():
    # Same seed, flag on vs off: bit-for-bit identical trace digests.
    assert _digest(sanitize=True) == _digest(sanitize=False)
