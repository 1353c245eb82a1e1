"""The deterministic fan-out engine: serial and parallel must agree.

Every sweep in the repository routes through
:func:`repro.bench.parallel.sweep`, so the properties pinned here —
results in parameter order, byte-identical output at any job count, clean
error propagation, gauge-free registry transport — are what make
``--jobs N`` safe to hand to users.

Workers live at module level (multiprocessing pickles them by qualified
name). The parallel cases use ``jobs=2``/``jobs=8`` with tiny cells, so
the suite stays fast even on one core.
"""

from __future__ import annotations

import pytest

from repro.bench.parallel import merge_registries, portable_registry, resolve_jobs, sweep
from repro.errors import ConfigError
from repro.obs.registry import MetricsRegistry


def _square(value):
    return value * value


def _sim_digest(seed, events):
    """A tiny deterministic simulation reduced to a picklable fingerprint."""
    import random

    from repro.sim.kernel import Simulator

    sim = Simulator()
    rng = random.Random(seed)
    seen = []

    def tick(tag):
        seen.append((tag, round(sim.now, 9)))
        if len(seen) < events:
            sim.schedule(rng.uniform(0.001, 0.01), tick, len(seen))

    sim.schedule(0.0, tick, 0)
    sim.run()
    return (seed, sim.events_executed, tuple(seen))


def _boom(value):
    raise ValueError(f"cell exploded on {value}")


def _mixed(fn, value):
    return fn(value)


def _make_registry(committed):
    registry = MetricsRegistry()
    registry.counter("txn.committed").increment(committed)
    registry.histogram("txn.latency").add(0.001 * committed)
    registry.gauge("sim.now", lambda: 1.0)  # callable-backed: unpicklable
    return portable_registry(registry)


# ---------------------------------------------------------------------------
# resolve_jobs
# ---------------------------------------------------------------------------

def test_resolve_jobs_default_is_serial():
    assert resolve_jobs(None) == 1


def test_resolve_jobs_zero_means_all_cores():
    assert resolve_jobs(0) >= 1


def test_resolve_jobs_negative_rejected():
    with pytest.raises(ConfigError, match="--jobs"):
        resolve_jobs(-2)


# ---------------------------------------------------------------------------
# sweep: ordering and serial-vs-parallel equivalence
# ---------------------------------------------------------------------------

def test_serial_results_in_cell_order():
    assert sweep(_square, [(n,) for n in range(6)]) == [0, 1, 4, 9, 16, 25]


def test_parallel_results_in_cell_order():
    assert sweep(_square, [(n,) for n in range(6)], jobs=2) == [0, 1, 4, 9, 16, 25]


def test_simulation_sweep_identical_at_any_job_count():
    # The satellite contract: a grid of real (tiny) simulations produces
    # byte-identical results serially and under a wide fan-out.
    params = [(seed, 8) for seed in (1, 2, 3, 4, 5, 6)]
    serial = sweep(_sim_digest, params)
    fanned = sweep(_sim_digest, params, jobs=8)
    assert repr(serial) == repr(fanned)


def test_cell_error_propagates_serial():
    with pytest.raises(ValueError, match="exploded on 7"):
        sweep(_mixed, [(_square, 1), (_boom, 7)])


def test_cell_error_propagates_parallel():
    with pytest.raises(ValueError, match="exploded on 7"):
        sweep(_mixed, [(_square, 1), (_boom, 7), (_square, 2)], jobs=2)


def test_sweep_builds_cells_from_param_tuples():
    assert sweep(_square, [(2,), [3]]) == [4, 9]


# ---------------------------------------------------------------------------
# Registry transport: gauges stripped, everything else merges on join
# ---------------------------------------------------------------------------

def test_portable_registry_strips_gauges_only():
    portable = _make_registry(committed=5)
    assert "sim.now" not in portable
    assert "txn.committed" in portable
    assert "txn.latency" in portable


def test_portable_registry_survives_pickling():
    import pickle

    restored = pickle.loads(pickle.dumps(_make_registry(committed=3)))
    assert restored.counter("txn.committed").value == 3


def test_merge_registries_sums_across_cells():
    merged = merge_registries(
        sweep(_make_registry, [(n,) for n in (2, 3, 4)], jobs=2)
    )
    assert merged.counter("txn.committed").value == 9
    assert merged.histogram("txn.latency").count == 3
