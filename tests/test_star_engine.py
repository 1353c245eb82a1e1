"""The STAR engine: phase controller, validation, metrics, invariants.

End-to-end equivalence with the core engine lives in
``test_engine_equivalence.py``; this file covers the engine seam and
the star-specific machinery, plus property-based phase-boundary tests:
random transaction mixes straddling phase switches must never lose,
duplicate, or reorder committed effects.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import ClusterConfig, Microbenchmark
from repro.core import checkers
from repro.core.traffic import ClientProfile
from repro.core.cluster import Cluster
from repro.engines import ENGINES, build_cluster, get_engine
from repro.errors import ConfigError
from repro.star import PARTITIONED, SINGLE_MASTER, PhaseController, StarCluster, phase


def _micro() -> Microbenchmark:
    return Microbenchmark(mp_fraction=0.3, hot_set_size=10, cold_set_size=100)


def _star_cluster(seed: int = 2012, partitions: int = 2, **kwargs) -> StarCluster:
    config = ClusterConfig(
        num_partitions=partitions, num_replicas=1, seed=seed, engine="star",
        **kwargs,
    )
    return build_cluster(config, workload=_micro())


def _run(cluster, per_partition: int = 4, max_txns: int = 10, duration: float = 0.3):
    cluster.load_workload_data()
    cluster.add_clients(ClientProfile(per_partition=per_partition, max_txns=max_txns))
    cluster.run(duration=duration)
    cluster.quiesce()
    return cluster


# ---------------------------------------------------------------------------
# Engine registry
# ---------------------------------------------------------------------------

def test_registry_knows_all_three_engines():
    assert sorted(ENGINES) == ["baseline", "core", "star"]
    for name in ENGINES:
        cluster_cls = get_engine(name)
        assert issubclass(cluster_cls, Cluster)
        assert cluster_cls.engine == name


def test_unknown_engine_rejected():
    with pytest.raises(ConfigError, match="unknown engine"):
        get_engine("volcano")
    with pytest.raises(ConfigError, match="engine"):
        ClusterConfig(num_partitions=2, engine="volcano").validate()


def test_build_cluster_dispatches_on_config_engine():
    from repro.baseline.cluster import BaselineCluster
    from repro.core.cluster import CalvinCluster

    core = build_cluster(ClusterConfig(num_partitions=2, engine="core"),
                         workload=_micro())
    assert type(core) is CalvinCluster
    baseline = build_cluster(ClusterConfig(num_partitions=2, engine="baseline"),
                             workload=_micro())
    assert isinstance(baseline, BaselineCluster)
    star = build_cluster(ClusterConfig(num_partitions=2, engine="star"),
                         workload=_micro())
    assert isinstance(star, StarCluster)
    assert star.config.engine == "star"


def test_deterministic_order_flags():
    assert get_engine("core").deterministic_order
    assert get_engine("star").deterministic_order
    assert not get_engine("baseline").deterministic_order


# The shared surface, checked rather than described: what the clients,
# the harness, the CLI and the equivalence oracle drive is defined once
# on the base class, and every registered engine runs the same body.
SHARED_SURFACE = (
    "load", "load_workload_data", "add_clients", "run", "quiesce",
    "next_txn_id", "initial_data", "sorted_history",
)


@pytest.mark.parametrize("name", sorted(ENGINES))
def test_cluster_contract_one_drive_path(name):
    cluster_cls = get_engine(name)
    cluster = build_cluster(
        ClusterConfig(num_partitions=2, seed=7, engine=name),
        workload=_micro(), record_history=True,
    )
    assert type(cluster) is cluster_cls
    assert cluster.config.engine == name == type(cluster).engine

    cluster.load_workload_data()
    initial = cluster.initial_data
    assert initial
    clients = cluster.add_clients(ClientProfile(per_partition=2, max_txns=5))
    assert len(clients) == 4 and cluster.clients == clients
    report = cluster.run(duration=0.3)
    cluster.quiesce()
    assert all(client.idle for client in cluster.clients)
    assert all(client.completed >= 5 for client in cluster.clients)
    # Not == 20: a wait-die death completes a baseline request uncommitted.
    assert 0 < report.committed <= cluster.metrics.committed <= 20

    history = cluster.sorted_history()
    assert len(history) >= cluster.metrics.committed
    assert [entry[0] for entry in history] == sorted(entry[0] for entry in history)
    final = cluster.final_state()
    assert set(final) >= set(initial) and final != initial
    assert cluster.initial_data == initial  # a copy, not the live dict
    assert cluster.next_txn_id() > 20


@pytest.mark.parametrize("name", sorted(ENGINES))
def test_cluster_contract_surface_defined_once(name):
    for cls in get_engine(name).__mro__:
        if cls is Cluster:
            break
        redefined = sorted(set(SHARED_SURFACE) & set(vars(cls)))
        assert not redefined, f"{cls.__name__} redefines {redefined}"


def test_cluster_contract_direct_construction_pins_engine():
    """A cluster's config names the class that built it, so ClusterAdmin
    (core only) accepts a CalvinCluster whatever the config said."""
    from repro import CalvinCluster, ClusterAdmin
    from repro.baseline.cluster import BaselineCluster

    mislabelled = ClusterConfig(num_partitions=2, engine="star")
    cluster = CalvinCluster(mislabelled, workload=_micro())
    assert cluster.config.engine == "core"
    ClusterAdmin(cluster)
    for cluster_cls in (BaselineCluster, StarCluster):
        built = cluster_cls(ClusterConfig(num_partitions=2), workload=_micro())
        assert built.config.engine == cluster_cls.engine


def test_cluster_contract_core_only_fields_refused_on_direct_construction():
    from repro.baseline.cluster import BaselineCluster

    config = ClusterConfig(num_partitions=2, active_partitions=1)
    with pytest.raises(
        ConfigError,
        match=r"baseline engine does not support elastic reconfiguration: "
              r".*\(got active_partitions=1\)",
    ):
        BaselineCluster(config, workload=_micro())


# ---------------------------------------------------------------------------
# Phase controller
# ---------------------------------------------------------------------------

def _controller() -> PhaseController:
    config = ClusterConfig(num_partitions=2, engine="star")
    return PhaseController(sim=None, config=config, master=None)


def _set_fraction(controller: PhaseController, f: float, total: int = 1000):
    controller.txns_observed = total
    controller.multipartition_observed = round(total * f)


def test_partitioned_epochs_long_when_mp_rare():
    controller = _controller()
    _set_fraction(controller, 0.0)
    assert controller.partitioned_epochs() == phase.MAX_PARTITIONED_EPOCHS


def test_partitioned_epochs_minimum_when_mp_dominates():
    controller = _controller()
    _set_fraction(controller, 1.0)
    assert controller.partitioned_epochs() == phase.MIN_PARTITIONED_EPOCHS


def test_partitioned_epochs_monotone_in_fraction(monkeypatch):
    monkeypatch.setattr(phase, "MAX_PARTITIONED_EPOCHS", 32)
    controller = _controller()
    lengths = []
    for f in (0.0, 0.05, 0.1, 0.3, 0.5, 0.8, 1.0):
        _set_fraction(controller, f)
        lengths.append(controller.partitioned_epochs())
    assert lengths == sorted(lengths, reverse=True)
    assert all(length >= 1 for length in lengths)


def test_fraction_defaults_to_zero_before_any_batch():
    controller = _controller()
    assert controller.multipartition_fraction == 0.0


# ---------------------------------------------------------------------------
# Cluster validation and lifecycle
# ---------------------------------------------------------------------------

def test_star_rejects_multiple_replicas():
    config = ClusterConfig(num_partitions=2, num_replicas=2,
                           replication_mode="paxos", engine="star")
    # Pinned: the message must name the constraint, echo the offending
    # value, and point at the limitations doc.
    with pytest.raises(
        ConfigError,
        match=r"single replica \(got num_replicas=2\).*"
              r"docs/engines\.md#limitations",
    ):
        build_cluster(config, workload=_micro())


def test_star_rejects_fault_injection():
    with pytest.raises(ConfigError, match="fault injection"):
        _star_cluster(fault_profile="chaos-mix", fault_horizon=0.2)


def test_star_rejects_replay():
    with pytest.raises(ConfigError, match="replay"):
        StarCluster.replay(None)


def test_star_run_commits_and_holds_invariants():
    cluster = _run(_star_cluster())
    assert cluster.metrics.committed == 2 * 4 * 10
    assert checkers.check_serializability(cluster) > 0
    checkers.check_conflict_order(cluster)
    checkers.check_no_double_apply(cluster)
    checkers.check_no_lost_commits(cluster)


def test_star_phase_metrics_exported():
    cluster = _run(_star_cluster())
    snapshot = cluster.metrics_registry.snapshot()
    for name in ("star.phase", "star.phase_switches", "star.mp_fraction",
                 "star.backlog", "star.master_in_flight", "star.master_txns",
                 "star.committed_partitioned", "star.committed_single_master"):
        assert name in snapshot
    assert snapshot["star.phase_switches"] > 0
    assert snapshot["star.master_txns"] > 0
    assert snapshot["star.backlog"] == 0          # drained at quiesce
    assert snapshot["star.master_in_flight"] == 0
    by_phase = cluster.committed_by_phase
    assert by_phase[PARTITIONED] + by_phase[SINGLE_MASTER] == (
        cluster.metrics.committed
    )


def test_star_records_phase_spans():
    from repro.obs import SpanKind, TraceRecorder

    tracer = TraceRecorder()
    config = ClusterConfig(num_partitions=2, num_replicas=1, seed=1, engine="star")
    cluster = build_cluster(config, workload=_micro(), tracer=tracer)
    _run(cluster)
    phases = [span for span in tracer.spans if span.kind is SpanKind.PHASE]
    assert phases
    details = {span.detail for span in phases}
    assert details <= {PARTITIONED, SINGLE_MASTER}
    assert PARTITIONED in details


# ---------------------------------------------------------------------------
# Property-based phase-boundary tests
# ---------------------------------------------------------------------------

@given(
    seed=st.integers(0, 10_000),
    mp_fraction=st.sampled_from([0.1, 0.3, 1.0]),
    hot=st.sampled_from([1, 5, 100]),
)
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_random_mixes_across_phase_switches_stay_serializable(
    seed, mp_fraction, hot
):
    """Committed effects survive phase switches: none lost (every client
    txn reaches a terminal state and serial replay reproduces the final
    state), none duplicated, none reordered against the agreed order."""
    workload = Microbenchmark(
        mp_fraction=mp_fraction, hot_set_size=hot, cold_set_size=60
    )
    config = ClusterConfig(num_partitions=2, num_replicas=1, seed=seed,
                           engine="star")
    cluster = build_cluster(config, workload=workload)
    _run(cluster, per_partition=4, max_txns=8, duration=0.25)
    assert checkers.check_serializability(cluster) == 2 * 4 * 8  # none lost
    checkers.check_no_double_apply(cluster)                      # none duplicated
    checkers.check_conflict_order(cluster)                       # none reordered
    assert cluster.controller.phase_switches > 0                 # phases did switch


@given(seed=st.integers(0, 10_000))
@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_scripted_mix_identical_to_core_across_phase_switches(seed):
    """The sharper phase-boundary property: the same schedule through
    core (no phases) and star (phase-switched) commits identical effects."""
    from repro.engines.equivalence import compare_engines

    runs = compare_engines(
        _micro(),
        ClusterConfig(num_partitions=2, num_replicas=1, seed=seed),
        engines=("core", "star"),
        txns_per_partition=20,
        seed=seed,
    )
    star = runs["star"].cluster
    assert star.controller.phase_switches > 0
    assert runs["core"].final_state == runs["star"].final_state
