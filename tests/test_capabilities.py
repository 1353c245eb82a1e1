"""The capability table (``repro.engines``), cell by cell.

Every engine × feature pairing is driven here:

- a **supported** cell builds through ``build_cluster``, runs bounded
  clients to quiescence with at least one commit, passes
  ``repro.core.checkers.verify`` (every checker the cluster can answer:
  the baseline has no agreed order, input log or schedulers, so it gets
  serializability only) and shows one observable sign that its feature
  ran;
- a **rejected** cell raises ``ConfigError`` carrying the table's
  reason, at the site that refuses it; an operation the engine's class
  does not define (baseline ``replay`` / ``schedule_checkpoint``) is
  simply absent.

The docs/engines.md "Limitations" tables are checked against the code
table, cell for cell.
"""

from __future__ import annotations

import inspect
import re
from itertools import dropwhile, takewhile
from pathlib import Path
from typing import Callable, Dict

import pytest

from repro import CalvinCluster, ClientProfile, ClusterAdmin, ClusterConfig, Microbenchmark
from repro.core.checkers import verify
from repro.engines import (
    ENGINES,
    EXCLUSIONS,
    FEATURES,
    UNSUPPORTED,
    build_cluster,
    features_of,
    get_engine,
)
from repro.errors import ConfigError
from repro.faults.plan import FaultPlan
from repro.partition.catalog import NodeId

DOCS = Path(__file__).resolve().parent.parent / "docs" / "engines.md"
HOSTING = ((0, 1), (0,), (1,))

# The config that switches each feature on; operation-only features
# (checkpoint, open_loop, replay) need none.
TRIGGERS: Dict[str, Dict] = {
    "partial_hosting": dict(
        num_replicas=3, replication_mode="paxos", partial_hosting=HOSTING
    ),
    "replication": dict(num_replicas=2, replication_mode="paxos"),
    "topology": dict(topology="ring"),
    "reconfig": dict(active_partitions=1),
    "faults": dict(fault_profile="chaos-mix", fault_horizon=0.25),
    "disk": dict(disk_enabled=True),
    "checkpoint": {},
    "admission": dict(admission_policy="shed", admission_epoch_budget=2),
    "open_loop": {},
    "audit": dict(audit_footprints=True),
    "force_input_log": dict(force_input_log=True),
    "lock_manager_shards": dict(lock_manager_shards=2),
    "replay": {},
}
# The fault_plan= trigger.
_PAUSE = FaultPlan(name="pause").pause(at=0.1, replica=0, partition=0, until=0.2)


def _workload() -> Microbenchmark:
    return Microbenchmark(
        mp_fraction=0.5, hot_set_size=20, cold_set_size=100,
        archive_set_size=200, archive_fraction=0.2,
    )


def _config(engine: str, *features: str) -> ClusterConfig:
    """Two partitions on ``engine`` with every one of ``features`` on."""
    values = dict(num_partitions=2, seed=17, engine=engine)
    for feature in features:
        values.update(TRIGGERS[feature])
    return ClusterConfig(**values)


def _run(engine: str, feature: str, clients=None, before_run=None):
    cluster = build_cluster(
        _config(engine, feature), workload=_workload(), record_history=True
    )
    cluster.load_workload_data()
    cluster.add_clients(clients or ClientProfile(per_partition=4, max_txns=10))
    if before_run is not None:
        before_run(cluster)
    cluster.run(duration=0.3)
    cluster.quiesce()
    assert cluster.metrics.committed >= 1
    verify(cluster)
    return cluster


# -- supported cells: feature -> (engine -> None), asserting the sign ---------

SUPPORTED: Dict[str, Callable[[str], None]] = {}


def supported(feature: str):
    def register(drive: Callable[[str], None]) -> Callable[[str], None]:
        SUPPORTED[feature] = drive
        return drive

    return register


@supported("partial_hosting")
def _partial_hosting(engine):
    cluster = _run(engine, "partial_hosting")
    # Replica 1 hosts partition 0 only, and holds replica 0's copy of it
    # although it never re-executed the straddling transactions.
    assert NodeId(1, 1) not in cluster.nodes
    assert cluster.node(1, 0).scheduler.completed == (
        cluster.node(0, 0).scheduler.completed
    )


@supported("replication")
def _replication(engine):
    cluster = _run(engine, "replication")
    for partition in range(2):
        replica_0 = cluster.node(0, partition).scheduler.completed
        assert cluster.node(1, partition).scheduler.completed == replica_0 > 0


@supported("topology")
def _topology(engine):
    cluster = _run(engine, "topology")
    assert cluster.network.geo is not None


@supported("reconfig")
def _reconfig(engine):
    admins = []

    def join(cluster):
        admins.append(ClusterAdmin(cluster))
        admins[0].add_node()

    _run(engine, "reconfig", before_run=join)
    assert admins[0].joins == 1 and admins[0].current_origins() == (0, 1)


@supported("faults")
def _faults(engine):
    cluster = _run(engine, "faults")
    assert cluster.fault_injector.trace


@supported("disk")
def _disk(engine):
    cluster = _run(engine, "disk")
    assert sum(node.engine.disk.fetches for node in cluster.nodes.values()) > 0


@supported("checkpoint")
def _checkpoint(engine):
    done = []
    cluster = _run(
        engine, "checkpoint",
        before_run=lambda c: done.append(c.schedule_checkpoint(0.1, mode="zigzag")),
    )
    assert done[0].triggered
    epoch = cluster.checkpoints[0].epoch
    image = {}
    for snapshot in cluster.checkpoints.values():
        image.update(snapshot.data)
    suffix = [entry for entry in cluster.merged_log() if entry.epoch >= epoch]
    recovered = CalvinCluster.replay(
        cluster.config, cluster.registry, cluster.catalog.partitioner,
        image, suffix, start_epoch=epoch,
    )
    assert recovered.final_state() == cluster.final_state()


@supported("admission")
def _admission(engine):
    cluster = _run(engine, "admission")
    assert cluster.admission_stats()["offered"] > 0


@supported("open_loop")
def _open_loop(engine):
    profile = ClientProfile(per_partition=2, mode="open", rate=200.0, max_txns=8)
    cluster = _run(engine, "open_loop", clients=profile)
    assert all(client.open for client in cluster.clients)
    assert sum(client.submitted for client in cluster.clients) > 0


@supported("audit")
def _audit(engine):
    cluster = _run(engine, "audit")
    snapshot = cluster.metrics_registry.snapshot()
    assert snapshot["audit.footprint.txns_observed"] == cluster.metrics.committed


@supported("force_input_log")
def _force_input_log(engine):
    cluster = _run(engine, "force_input_log")
    assert cluster.node(0, 0).sequencer._force_log.forces > 0


@supported("lock_manager_shards")
def _lock_manager_shards(engine):
    cluster = _run(engine, "lock_manager_shards")
    shards = cluster.node(0, 0).scheduler._lock_shards
    assert len(shards) == 2 and all(shard.grants > 0 for shard in shards)


@supported("replay")
def _replay(engine):
    cluster = _run(engine, "replay")
    replayed = get_engine(engine).replay(
        cluster.config, cluster.registry, cluster.catalog.partitioner,
        cluster.initial_data, cluster.merged_log(),
    )
    assert replayed.final_state() == cluster.final_state()


# -- rejected cells -----------------------------------------------------------


def _refused(engine: str, feature: str, reason: str):
    """A ``pytest.raises`` for the table's uniform refusal message."""
    label = re.escape(FEATURES[feature].label)
    return pytest.raises(
        ConfigError,
        match=rf"^the {engine} engine does not support {label}: "
              rf"{re.escape(reason)}.*docs/engines\.md#limitations$",
    )


def _reject(engine: str, feature: str, reason: str) -> None:
    cluster_cls = get_engine(engine)
    if feature == "checkpoint":
        assert not hasattr(cluster_cls, "schedule_checkpoint")
        return
    if feature == "replay":
        if not hasattr(cluster_cls, "replay"):
            return
        with _refused(engine, feature, reason):
            cluster_cls.replay(None)  # refused before any argument is read
        return
    if feature == "open_loop":
        cluster = build_cluster(_config(engine), workload=_workload())
        with _refused(engine, feature, reason):
            cluster.add_clients(ClientProfile(mode="open", max_txns=1))
        return
    with _refused(engine, feature, reason):
        build_cluster(_config(engine, feature), workload=_workload())
    if feature == "reconfig":
        plain = build_cluster(_config(engine), workload=_workload())
        with _refused(engine, feature, reason):
            ClusterAdmin(plain)
    if feature == "faults" and "fault_plan" in inspect.signature(cluster_cls).parameters:
        with _refused(engine, feature, reason):
            build_cluster(_config(engine), workload=_workload(), fault_plan=_PAUSE)


CELLS = [(feature, engine) for feature in FEATURES for engine in sorted(ENGINES)]


@pytest.mark.parametrize(
    "feature, engine", CELLS, ids=[f"{feature}-{engine}" for feature, engine in CELLS]
)
def test_cell(feature, engine):
    reason = UNSUPPORTED[engine].get(feature)
    if reason is None:
        SUPPORTED[feature](engine)
    else:
        _reject(engine, feature, reason)


# -- the pair exclusions ------------------------------------------------------


def _excluded(pair):
    what = " with ".join(re.escape(FEATURES[feature].label) for feature in pair)
    return pytest.raises(
        ConfigError,
        match=rf"^the core engine does not support {what}: "
              rf"{re.escape(EXCLUSIONS[pair])}",
    )


def test_partial_hosting_excludes_faults():
    pair = ("partial_hosting", "faults")
    with _excluded(pair):
        _config("core", *pair).validate()
    with _excluded(pair):
        CalvinCluster(_config("core", "partial_hosting"), workload=_workload(),
                      fault_plan=_PAUSE)


def test_partial_hosting_excludes_reconfig():
    pair = ("partial_hosting", "reconfig")
    with _excluded(pair):
        _config("core", *pair).validate()
    cluster = CalvinCluster(_config("core", "partial_hosting"), workload=_workload())
    with _excluded(pair):
        ClusterAdmin(cluster)


# -- the table itself ---------------------------------------------------------


def test_table_covers_every_engine_and_names_known_features():
    assert set(UNSUPPORTED) == set(ENGINES)
    for refusals in UNSUPPORTED.values():
        assert set(refusals) <= set(FEATURES)
    for pair in EXCLUSIONS:
        assert set(pair) <= set(FEATURES)
    assert set(TRIGGERS) == set(FEATURES) == set(SUPPORTED)


@pytest.mark.parametrize("feature", sorted(FEATURES))
def test_trigger_switches_its_feature_on(feature):
    used = features_of(_config("core", feature))
    if FEATURES[feature].field is None:
        assert used == {}
    else:
        assert feature in used


def test_defaults_switch_nothing_on():
    assert features_of(ClusterConfig()) == {}


def _doc_table(heading: str):
    """Header and body rows of the first markdown table after
    ``heading`` in the Limitations section of docs/engines.md."""
    section = DOCS.read_text().split("## Limitations", 1)[1].split("\n## ", 1)[0]
    lines = section.split(heading, 1)[1].splitlines()
    table = takewhile(
        lambda line: line.startswith("|"),
        dropwhile(lambda line: not line.startswith("|"), lines),
    )
    rows = [[cell.strip() for cell in line.strip("|").split("|")] for line in table]
    return rows[0], rows[2:]


def test_docs_limitations_table_equals_code_table():
    header, rows = _doc_table("### Capability table")
    engines = header[2:]
    assert sorted(engines) == sorted(ENGINES)
    assert [row[0] for row in rows] == [f"`{feature}`" for feature in FEATURES]
    for row in rows:
        feature = row[0].strip("`")
        trigger = FEATURES[feature].field
        if trigger is not None:
            assert f"`{trigger}`" in row[1], feature
        for engine, cell in zip(engines, row[2:]):
            reason = UNSUPPORTED[engine].get(feature)
            expected = "✓" if reason is None else f"✗ {reason}"
            assert cell == expected, (feature, engine)


def test_docs_exclusions_table_equals_code_table():
    _header, rows = _doc_table("### Pair exclusions")
    documented = {
        tuple(part.strip().strip("`") for part in row[0].split("+")): row[1]
        for row in rows
    }
    assert documented == EXCLUSIONS
