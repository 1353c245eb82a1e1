"""Cross-engine equivalence: one scripted schedule, every engine.

The acceptance property of the engine seam: the deterministic
engines (``core``, ``star``) fed the identical submission schedule must
produce *identical* terminal statuses and final states, and the
lock-race ``baseline`` must at least be serializability-equivalent
(its own completion order serially explains its state).
"""

from __future__ import annotations

import pytest

from repro import ClusterConfig, Microbenchmark
from repro.engines.equivalence import (
    compare_engines,
    run_scripted,
    scripted_schedule,
)
from repro.errors import ConsistencyError
from repro.workloads.tpcc import TpccWorkload
from repro.workloads.ycsb import YcsbWorkload

from .conftest import BankWorkload

SEEDS = (0, 1, 2)


def _config(seed: int, partitions: int = 2) -> ClusterConfig:
    return ClusterConfig(num_partitions=partitions, num_replicas=1, seed=seed)


def _micro() -> Microbenchmark:
    return Microbenchmark(mp_fraction=0.3, hot_set_size=10, cold_set_size=100)


def _ycsb() -> YcsbWorkload:
    return YcsbWorkload(records_per_partition=500, mp_fraction=0.3)


# ---------------------------------------------------------------------------
# The acceptance grid: core vs star identical on 3 workloads x 3 seeds
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
def test_core_star_identical_microbenchmark(seed):
    runs = compare_engines(
        _micro(), _config(seed), engines=("core", "star"),
        txns_per_partition=25, seed=seed,
    )
    assert runs["core"].committed > 0
    assert runs["core"].final_state == runs["star"].final_state


@pytest.mark.parametrize("seed", SEEDS)
def test_core_star_identical_ycsb(seed):
    runs = compare_engines(
        _ycsb(), _config(seed), engines=("core", "star"),
        txns_per_partition=25, seed=seed,
    )
    assert runs["core"].committed > 0


@pytest.mark.parametrize("seed", SEEDS)
def test_core_star_identical_bank(seed):
    # Non-commutative transfers with aborts: any reordering of
    # conflicting commits shows up as a balance difference.
    runs = compare_engines(
        BankWorkload(), _config(seed), engines=("core", "star"),
        txns_per_partition=25, seed=seed,
    )
    assert runs["core"].statuses == runs["star"].statuses


def test_star_actually_routes_through_master():
    """The equivalence above is meaningful only if star took its own path."""
    runs = compare_engines(
        _micro(), _config(7), engines=("core", "star"), txns_per_partition=25,
        seed=7,
    )
    star = runs["star"].cluster
    assert star.master.txns_executed > 0
    assert star.controller.phase_switches > 0
    # Every multipartition txn was parked at each of its participants,
    # so the route count is at least one per master execution.
    routed = sum(
        star.node(0, p).scheduler.star_routed
        for p in range(star.config.num_partitions)
    )
    assert routed >= star.master.txns_executed


def test_scripted_schedule_is_engine_independent():
    schedule_a = scripted_schedule(_micro(), _config(3), seed=3)
    schedule_b = scripted_schedule(_micro(), _config(3), seed=3)
    assert schedule_a == schedule_b
    assert scripted_schedule(_micro(), _config(3), seed=4) != schedule_a


def test_identical_check_catches_tampering():
    schedule = scripted_schedule(_micro(), _config(5), txns_per_partition=15, seed=5)
    run_a = run_scripted("core", _config(5), _micro(), schedule)
    run_b = run_scripted("star", _config(5), _micro(), schedule)
    tampered_key = next(iter(run_b.final_state))
    run_b.final_state[tampered_key] = object()
    from repro.engines.equivalence import check_identical_outcome

    with pytest.raises(ConsistencyError):
        check_identical_outcome(run_a, run_b)


# ---------------------------------------------------------------------------
# Baseline serializability-equivalence (lighter: it is the slow leg)
# ---------------------------------------------------------------------------

def test_all_three_engines_agree_microbenchmark():
    runs = compare_engines(
        _micro(), _config(11), txns_per_partition=15, seed=11,
    )
    assert set(runs) == {"core", "star", "baseline"}
    # Every scripted txn reached a terminal outcome everywhere.
    for run in runs.values():
        assert len(run.statuses) == 30


# ---------------------------------------------------------------------------
# Nightly grid: all engines x all workloads x seeds (slow)
# ---------------------------------------------------------------------------

@pytest.mark.slow
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "make_workload",
    [_micro, _ycsb, BankWorkload, lambda: TpccWorkload(remote_fraction=0.2)],
    ids=["micro", "ycsb", "bank", "tpcc"],
)
def test_full_equivalence_grid(make_workload, seed):
    runs = compare_engines(
        make_workload(), _config(seed, partitions=3), txns_per_partition=20,
        seed=seed,
    )
    assert runs["core"].committed > 0
    assert runs["core"].final_state == runs["star"].final_state
