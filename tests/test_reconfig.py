"""Elastic reconfiguration: the control plane's correctness contract.

Every cluster-shape change (split / merge / join / leave) goes through
the sequenced log, so the standard oracles apply unchanged: the run is
serializable, the log replays bit-identically (including the
reconfiguration itself), and the same seed gives the same digests
whatever the control plane did mid-run.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    CalvinCluster,
    ClientProfile,
    ClusterAdmin,
    ClusterConfig,
    ConfigError,
    Microbenchmark,
    check_conflict_order,
    check_epoch_contiguity,
    check_no_double_apply,
    check_no_lost_commits,
    check_serializability,
)
from repro.bench.experiments import shape_digest
from repro.partition import Catalog, FuncPartitioner
from repro.partition.catalog import MIGRATION_PROC
from repro.reconfig import AutoscalePolicy, Autoscaler
from repro.txn.transaction import Transaction


def _workload():
    return Microbenchmark(mp_fraction=0.3, hot_set_size=10, cold_set_size=100)


def _cluster(partitions=4, active=2, replicas=1, seed=2012, **overrides):
    config = ClusterConfig(
        num_partitions=partitions,
        num_replicas=replicas,
        replication_mode="paxos" if replicas > 1 else "none",
        seed=seed,
        active_partitions=active,
        **overrides,
    )
    cluster = CalvinCluster(config, workload=_workload())
    cluster.load_workload_data()
    return cluster


def _checks(cluster):
    check_serializability(cluster)
    check_conflict_order(cluster)
    check_epoch_contiguity(cluster)
    check_no_double_apply(cluster)
    check_no_lost_commits(cluster)


class TestEpochRouter:
    def test_origin_sets_are_epoch_keyed(self):
        cluster = _cluster()
        catalog = cluster.catalog
        assert catalog.origins_at(0) == (0, 1)
        catalog.arm_origin_change(5, (0, 1, 2))
        assert catalog.origins_at(4) == (0, 1)
        assert catalog.origins_at(5) == (0, 1, 2)
        assert catalog.origins_at(9) == (0, 1, 2)

    def test_overrides_flip_at_their_epoch(self):
        cluster = _cluster()
        catalog = cluster.catalog
        key = next(iter(cluster.node(0, 0).store.keys()))
        assert catalog.partition_of_at(key, 0) == 0
        catalog.arm_override(3, {key: 2})
        assert catalog.partition_of_at(key, 2) == 0
        assert catalog.partition_of_at(key, 3) == 2
        assert catalog.partition_of_at(key, 7) == 2

    def test_routing_version_changes_with_each_arm(self):
        cluster = _cluster()
        catalog = cluster.catalog
        before = catalog.routing_version_at(4)
        catalog.arm_override(4, {"k": 1})
        assert catalog.routing_version_at(4) != before
        assert catalog.routing_version_at(3) == before


    def test_same_epoch_arms_each_start_a_version(self):
        cluster = _cluster()
        catalog = cluster.catalog
        catalog.arm_override(4, {"a": 1})
        first = catalog.routing_version_at(4)
        catalog.arm_override(4, {"b": 2})
        assert catalog.routing_version_at(4) != first
        assert catalog.partition_of_at("a", 4) == 1  # cumulative
        assert catalog.partition_of_at("b", 4) == 2

    def test_route_flips_with_the_override(self):
        cluster = _cluster()
        catalog = cluster.catalog
        moved, stays = list(cluster.node(0, 0).store.keys())[:2]
        txn = Transaction.create(1, "p", None, [moved, stays], [moved, stays])
        before = catalog.route(txn, 0)
        assert before.participants == {0} and before.reply == 0
        catalog.arm_override(3, {moved: 2})
        assert _route_value(catalog.route(txn, 2)) == _route_value(before)  # same version
        after = catalog.route(txn, 3)
        assert _route_value(after) == _route_value(catalog.route(txn, 7))
        assert after.participants == after.active == after.read_holders == {0, 2}
        assert after.reply == 0
        assert after[2] == ((moved,), (moved,), ())
        assert after[0] == ((stays,), (stays,), ())
        # Routing back to an older epoch (log resend) sees its routing.
        assert catalog.route(txn, 0).participants == {0}

    def test_migration_route_is_pinned_to_source_and_dest(self):
        cluster = _cluster()
        catalog = cluster.catalog
        keys = sorted(list(cluster.node(0, 0).store.keys())[:3], key=repr)
        catalog.arm_override(5, {key: 2 for key in keys})
        txn = Transaction.create(-1, MIGRATION_PROC, (1, 0, 2), keys, keys)
        # At its own epoch the keys already route to the destination,
        # yet both sides take part and write-lock the whole range.
        route = catalog.route(txn, 5)
        assert route.participants == route.active == {0, 2}
        assert route.read_holders == {0} and route.reply == 2
        assert route[0] == route[2] == ((), tuple(keys), ())


_PARTITIONS = 4
_KEYS = [("k", n) for n in range(12)]
_footprints = st.lists(st.sampled_from(_KEYS), max_size=6, unique=True)
# (epoch step >= 0, moves): in-order arm_override sequences, same-epoch
# re-arms included.
_arms = st.lists(
    st.tuples(
        st.integers(0, 3),
        st.dictionaries(
            st.sampled_from(_KEYS), st.integers(0, _PARTITIONS - 1),
            min_size=1, max_size=4,
        ),
    ),
    max_size=4,
)


def _route_value(route):
    """Everything a route says, for comparing two routes by value."""
    return dict(route), route.participants, route.active, route.reply, route.read_holders


def _is_subsequence(part, whole):
    rest = iter(whole)
    return all(key in rest for key in part)


def _bare_catalog():
    return Catalog(
        ClusterConfig(num_partitions=_PARTITIONS),
        FuncPartitioner(_PARTITIONS, lambda key: key[1]),
    )


class TestRouteProperty:
    @settings(max_examples=150, deadline=None)
    @given(reads=_footprints, writes=_footprints, arms=_arms)
    def test_route_agrees_with_the_router_at_every_epoch(self, reads, writes, arms):
        if not reads and not writes:
            reads = [_KEYS[0]]
        txn = Transaction.create(1, "p", None, reads, writes)
        catalog = _bare_catalog()
        epoch, horizon = 0, 1
        for step, moves in [(0, None)] + arms:
            if moves is not None:
                epoch += step
                horizon = epoch + 2
                catalog.arm_override(epoch, moves)
            by_version = {}
            for at in range(horizon):
                route = catalog.route(txn, at)
                self._check_route(catalog, txn, route, at)
                value = _route_value(route)
                # A pure function of the routing version.
                assert by_version.setdefault(catalog.routing_version_at(at), value) == value
        # The replay case: a fresh catalog routes by its own arms alone.
        replay = _bare_catalog()
        self._check_route(replay, txn, replay.route(txn, epoch), epoch)

    @staticmethod
    def _check_route(catalog, txn, route, epoch):
        owner = {key: catalog.partition_of_at(key, epoch) for key in txn.all_keys()}
        assert route.participants == set(owner.values()) == set(route)
        assert route.read_holders == {owner[key] for key in txn.read_set}
        writers = {owner[key] for key in txn.write_set}
        assert route.active == (writers or {min(route.participants)})
        assert route.reply == min(route.active)
        seen_reads, seen_writes = [], []
        for partition, (local_reads, local_writes, read_only) in route.items():
            for part in (local_reads, local_writes, read_only):
                assert all(owner[key] == partition for key in part)
            # Each part keeps footprint order: a subsequence of its side.
            assert _is_subsequence(local_reads, txn.read_set)
            assert _is_subsequence(local_writes, txn.write_set)
            assert _is_subsequence(read_only, txn.read_set)
            assert set(read_only) == set(local_reads) - set(txn.write_set)
            seen_reads += local_reads
            seen_writes += local_writes
        # Disjoint and covering: every key in exactly one slice.
        assert sorted(seen_reads) == sorted(txn.read_set)
        assert sorted(seen_writes) == sorted(txn.write_set)


class TestAdminValidation:
    def test_plan_is_pure(self):
        cluster = _cluster()
        admin = ClusterAdmin(cluster)
        plan = admin.plan(0, fraction=0.5)
        assert plan.num_keys > 0
        assert admin.migrations == 0 and not admin.events
        assert admin.plan(0, fraction=0.5) == plan  # no id consumed

    def test_rejects_bad_arguments(self):
        cluster = _cluster()
        admin = ClusterAdmin(cluster)
        with pytest.raises(ConfigError):
            admin.plan(0, fraction=0.0)
        with pytest.raises(ConfigError):
            admin.plan(0, fraction=1.5)
        with pytest.raises(ConfigError):
            admin.plan(3)  # dormant spare, not an active origin
        with pytest.raises(ConfigError):
            admin.plan(0, dest=0)
        with pytest.raises(ConfigError):
            admin.plan(0, at_epoch=0)  # flip must be >= current + lead
        with pytest.raises(ConfigError):
            admin.add_node(partition=0)  # already active
        with pytest.raises(ConfigError):
            admin.remove_node(3)  # not an origin

    def test_cannot_remove_last_origin(self):
        cluster = _cluster(partitions=2, active=1)
        admin = ClusterAdmin(cluster)
        with pytest.raises(ConfigError):
            admin.remove_node(0)

    def test_one_admin_per_cluster(self):
        cluster = _cluster()
        ClusterAdmin(cluster)
        with pytest.raises(ConfigError):
            ClusterAdmin(cluster)

    def test_requires_core_engine(self):
        from repro.engines import build_cluster

        config = ClusterConfig(num_partitions=2, seed=1, engine="star")
        cluster = build_cluster(config, workload=_workload())
        with pytest.raises(ConfigError):
            ClusterAdmin(cluster)


class TestSplit:
    def test_split_under_load_is_serializable(self):
        cluster = _cluster()
        admin = ClusterAdmin(cluster)
        cluster.add_clients(ClientProfile(per_partition=4, max_txns=15))
        plan = admin.split(0, fraction=0.5)
        cluster.run(duration=0.4)
        cluster.quiesce()
        assert admin.quiesced
        _checks(cluster)
        # The spare joined and the moved keys live only at the dest.
        assert admin.current_origins() == (0, 1, 2)
        dest_store = cluster.node(0, plan.dest).store
        source_store = cluster.node(0, plan.source).store
        for key in plan.keys:
            assert key in dest_store
            assert key not in source_store
        assert [event.kind for event in admin.events] == ["join", "split"]
        assert admin.keys_moved == plan.num_keys

    def test_conflict_order_follows_moved_keys(self):
        """Regression (found by the perf ledger's verify pass): after a
        split, (40,0,6) and (42,0,4) share only a key that moved 0 -> 2 at
        epoch 29, so partition 0 may finish them in either order; a
        checker reading static ownership faulted partition 0 for it."""
        config = ClusterConfig(
            num_partitions=4, active_partitions=2, seed=2012,
            admission_policy="backpressure",
            admission_epoch_budget=20, admission_queue_capacity=40,
        )
        cluster = CalvinCluster(
            config,
            workload=Microbenchmark(
                mp_fraction=0.1, hot_set_size=1000, cold_set_size=10000
            ),
        )
        cluster.load_workload_data()
        admin = ClusterAdmin(cluster)
        cluster.sim.schedule_at(0.275, admin.split, 0, 0.5)
        cluster.sim.schedule_at(0.38, admin.remove_node, 1)
        cluster.add_clients(
            ClientProfile(
                per_partition=4, mode="open", rate=650.0,
                retry_rejected=True, max_txns=325,
            )
        )
        cluster.run(duration=0.5)
        cluster.quiesce()
        moved = cluster.reconfig_admin.plans[0].keys[0]
        assert cluster.catalog.partition_of(moved) == 0
        assert cluster.catalog.partition_of_at(moved, admin.plans[0].flip_epoch) == 2
        _checks(cluster)

    def test_merge_moves_everything(self):
        cluster = _cluster(partitions=2, active=2)
        admin = ClusterAdmin(cluster)
        cluster.add_clients(ClientProfile(per_partition=4, max_txns=10))
        plan = admin.merge(1, dest=0)
        cluster.run(duration=0.4)
        cluster.quiesce()
        _checks(cluster)
        assert len(cluster.node(0, 1).store) == 0
        assert plan.num_keys > 0
        # Merge does not retire the source origin.
        assert admin.current_origins() == (0, 1)


class TestJoinLeave:
    def test_add_node_grows_origin_set(self):
        cluster = _cluster()
        admin = ClusterAdmin(cluster)
        cluster.add_clients(ClientProfile(per_partition=4, max_txns=10))
        partition = admin.add_node()
        assert partition == 2
        cluster.run(duration=0.3)
        cluster.quiesce()
        _checks(cluster)
        assert admin.current_origins() == (0, 1, 2)
        assert admin.spare_partitions() == [3]

    def test_remove_node_retires_and_redirects(self):
        cluster = _cluster()
        admin = ClusterAdmin(cluster)
        cluster.add_clients(ClientProfile(per_partition=4, max_txns=15))
        plan = admin.remove_node(1)
        cluster.run(duration=0.5)
        cluster.quiesce()
        _checks(cluster)
        assert admin.current_origins() == (0,)
        assert len(cluster.node(0, 1).store) == 0
        assert plan is not None and plan.dest == 0
        # Clients homed on the retired origin were redirected.
        assert all(client.partition != 1 for client in cluster.clients)
        # The retired sequencer stopped cutting batches.
        last_epoch = max(entry.epoch for entry in cluster.node(0, 1).input_log)
        assert last_epoch <= plan.flip_epoch

    def test_quiesce_waits_for_pending_migration(self):
        cluster = _cluster()
        admin = ClusterAdmin(cluster)
        cluster.add_clients(ClientProfile(per_partition=4, max_txns=10))
        admin.split(0, 0.5)
        assert not admin.quiesced  # config txn still pending
        cluster.run(duration=0.3)
        cluster.quiesce()
        assert admin.quiesced


class TestDeterminism:
    def _elastic_run(self, seed=2012):
        cluster = _cluster(seed=seed)
        admin = ClusterAdmin(cluster)
        cluster.add_clients(ClientProfile(per_partition=4, max_txns=15))
        sim = cluster.sim
        sim.schedule_at(0.1, admin.split, 0, 0.5)
        sim.schedule_at(0.25, admin.remove_node, 1)
        cluster.run(duration=0.5)
        cluster.quiesce()
        return cluster

    def test_same_seed_same_shape_digest(self):
        a, b = self._elastic_run(), self._elastic_run()
        assert shape_digest(a) == shape_digest(b)
        assert a.reconfig_admin.events == b.reconfig_admin.events

    def test_different_seed_differs(self):
        assert shape_digest(self._elastic_run(seed=2012)) != shape_digest(
            self._elastic_run(seed=2013)
        )

    def test_replay_reproduces_reconfigured_state(self):
        cluster = self._elastic_run()
        replayed = CalvinCluster.replay(
            cluster.config,
            cluster.registry,
            cluster.catalog.partitioner,
            cluster.initial_data,
            cluster.merged_log(),
        )
        assert replayed.final_state() == cluster.final_state()
        # The replay rebuilt the same routing timeline from the log
        # alone: the moved keys live at the destination there too.
        plan = cluster.reconfig_admin.plans[0]
        assert all(key in replayed.node(0, plan.dest).store for key in plan.keys)


class TestAutoscaler:
    def _overloaded(self, seed=2012):
        cluster = _cluster(
            admission_policy="backpressure",
            admission_epoch_budget=20,
            admission_queue_capacity=40,
            seed=seed,
        )
        admin = ClusterAdmin(cluster)
        rate = 1.3 * 20 / cluster.config.epoch_duration / 4
        total = 0.4
        cluster.add_clients(
            ClientProfile(
                per_partition=4, mode="open", rate=rate,
                max_txns=max(1, int(rate * total)),
            )
        )
        scaler = Autoscaler(
            admin,
            AutoscalePolicy(
                interval=4 * cluster.config.epoch_duration,
                scale_up_queue_depth=10,
                cooldown=0.1,
                min_origins=2,
            ),
        )
        scaler.start()
        cluster.run(duration=total)
        cluster.quiesce()
        return cluster, scaler

    def test_scales_up_under_overload(self):
        cluster, scaler = self._overloaded()
        assert any(action == "split" for _, action, _, _ in scaler.decisions)
        admin = cluster.reconfig_admin
        # A spare was activated and keys really moved; once the bounded
        # load drains the scaler may retire it again (that's the point).
        assert admin.joins >= 1 and admin.migrations >= 1
        assert admin.keys_moved > 0
        _checks(cluster)

    def test_decisions_are_deterministic(self):
        (_, a), (_, b) = self._overloaded(), self._overloaded()
        assert a.decisions == b.decisions

    def test_respects_min_origins(self):
        cluster = _cluster(partitions=2, active=2)
        admin = ClusterAdmin(cluster)
        cluster.add_clients(ClientProfile(per_partition=2, max_txns=5))
        scaler = Autoscaler(
            admin,
            AutoscalePolicy(
                interval=2 * cluster.config.epoch_duration,
                cooldown=0.0,
                min_origins=2,
            ),
        )
        scaler.start()
        cluster.run(duration=0.4)
        cluster.quiesce()
        assert admin.current_origins() == (0, 1)
        assert not scaler.decisions

    def test_policy_validation(self):
        with pytest.raises(ConfigError):
            AutoscalePolicy(interval=0).validate()
        with pytest.raises(ConfigError):
            AutoscalePolicy(min_origins=0).validate()
