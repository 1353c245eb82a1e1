"""Closed-loop client behaviour: bounds, retries."""

import pytest

from repro import CalvinCluster, ClientProfile, ClusterConfig, Microbenchmark, TxnStatus
from repro.baseline.cluster import BaselineCluster
from repro.net.messages import TxnReply
from repro.txn.result import TransactionResult


def make_cluster(**client_kwargs):
    workload = Microbenchmark(mp_fraction=0.0, hot_set_size=5, cold_set_size=50)
    cluster = CalvinCluster(
        ClusterConfig(num_partitions=1, seed=2), workload=workload
    )
    cluster.load_workload_data()
    cluster.add_clients(ClientProfile(per_partition=1, **client_kwargs))
    return cluster


class TestPacing:
    def test_max_txns_bounds_submissions(self):
        cluster = make_cluster(max_txns=7)
        cluster.run(duration=0.5)
        cluster.quiesce()
        client = cluster.clients[0]
        assert client.completed == 7
        assert client.finished and client.idle
        assert cluster.metrics.committed == 7

    def test_unbounded_client_keeps_going(self):
        cluster = make_cluster()
        cluster.run(duration=0.3)
        client = cluster.clients[0]
        assert client.completed > 10
        assert not client.finished

    def test_one_outstanding_at_a_time(self):
        cluster = make_cluster(max_txns=5)
        cluster.run(duration=0.5)
        cluster.quiesce()
        client = cluster.clients[0]
        # submissions == completions when everything drained.
        assert client.submitted == client.completed

    def test_quiesce_rejects_unbounded(self):
        from repro.errors import ConfigError

        cluster = make_cluster()
        cluster.run(duration=0.05)
        with pytest.raises(ConfigError):
            cluster.quiesce(timeout=0.2)

    @pytest.mark.parametrize("engine", ["core", "baseline"])
    def test_quiesce_timeout_is_a_simulation_error(self, engine):
        """A bounded cluster that fails to drain is a liveness bug, not
        a usage error: the CLI prints ConfigError as a one-line usage
        message, which would hide exactly what `repro chaos` hunts."""
        from repro import build_cluster
        from repro.errors import ConfigError, SimulationError

        cluster = build_cluster(
            ClusterConfig(num_partitions=1, seed=2, engine=engine),
            workload=Microbenchmark(mp_fraction=0.0, hot_set_size=5, cold_set_size=50),
        )
        cluster.load_workload_data()
        cluster.add_clients(ClientProfile(per_partition=1, max_txns=50))
        cluster.run(duration=0.05)
        assert not cluster.clients[0].idle
        with pytest.raises(SimulationError, match="failed to quiesce") as excinfo:
            cluster.quiesce(timeout=0.0)
        assert not isinstance(excinfo.value, ConfigError)

    def test_latency_only_recorded_in_window(self):
        cluster = make_cluster(max_txns=30)
        cluster.run(duration=0.2, warmup=0.1)
        # Samples exist but fewer than total completions (warm-up excluded).
        assert 0 < cluster.metrics.latency.count <= cluster.clients[0].completed

    def test_start_is_idempotent(self):
        cluster = make_cluster(max_txns=3)
        client = cluster.clients[0]
        client.start()
        client.start()
        cluster.run(duration=0.1)
        assert client.submitted == client.completed == 3


class TestRestartRetry:
    def test_backoff_resubmission_keeps_the_client_busy(self):
        """A RESTART resubmission waiting out the engine's backoff is
        work still to come: quiesce() must not return before it is sent."""
        cluster = BaselineCluster(
            ClusterConfig(num_partitions=1, seed=2),
            workload=Microbenchmark(mp_fraction=0.0, hot_set_size=5, cold_set_size=50),
        )
        assert cluster.retry_backoff > 0
        cluster.load_workload_data()
        (client,) = cluster.add_clients(ClientProfile(per_partition=1, max_txns=1))
        cluster.start()
        client.start()
        (txn_id,) = client._inflight
        now = cluster.sim.now
        restart = TransactionResult(txn_id, TxnStatus.RESTART, None, now, now)
        client._on_message(None, TxnReply(restart))
        assert client.finished  # the RESTART reply counts toward max_txns
        assert not client.idle
        cluster.sim.run(until=now + cluster.retry_backoff / 2)
        assert client.submitted == 1 and not client.idle
        cluster.quiesce()
        assert client.submitted == 2
