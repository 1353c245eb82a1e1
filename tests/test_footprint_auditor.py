"""Runtime footprint auditor: digest neutrality, per-workload
over-declaration reports, under-declaration recording, and the
audit_scope arming used by ``--audit-footprints``.
"""

import pytest

from repro import CalvinCluster, ClusterConfig, Microbenchmark
from repro.analysis import FootprintAuditor, audit_armed, audit_scope
from repro.core.traffic import ClientProfile
from repro.errors import FootprintViolation
from repro.obs import TraceRecorder
from repro.partition.catalog import MIGRATION_PROC
from repro.txn import Transaction
from repro.workloads.tpcc.workload import TpccWorkload
from repro.workloads.ycsb import YcsbWorkload
from tests.test_golden_digests import GOLDEN_CALVIN


def run_cluster(workload, *, audit=True, seed=2012, duration=0.3,
                tracer=None):
    # Mirrors test_golden_digests._run_calvin so the digest test below
    # compares like with like (only audit_footprints differs).
    config = ClusterConfig(num_partitions=2, seed=seed,
                           audit_footprints=audit)
    cluster = CalvinCluster(config, workload=workload, tracer=tracer)
    cluster.load_workload_data()
    cluster.add_clients(ClientProfile(per_partition=4, max_txns=10))
    cluster.run(duration=duration)
    cluster.quiesce()
    return cluster


def micro():
    return Microbenchmark(mp_fraction=0.3, hot_set_size=10, cold_set_size=100)


class TestDigestNeutrality:
    def test_golden_digest_bit_identical_with_auditor_on(self):
        # Auditing is pure bookkeeping: same digest, events and commits
        # as the golden (auditor-off) run.
        tracer = TraceRecorder()
        cluster = run_cluster(micro(), audit=True, tracer=tracer)
        observed = (
            tracer.digest(),
            cluster.sim.events_executed,
            cluster.metrics.committed,
        )
        assert observed == GOLDEN_CALVIN


class TestWorkloadReports:
    """Every procedure a workload registers commits under audit with
    nothing over- or under-declared.

    ``__migration__`` is excluded: the data plane moves keys in
    ``run_migration`` and never runs the registered logic on a context,
    so there is nothing to audit. Its reference logic runs on the
    enforcing ``TxnContext`` in ``check_serializability`` after every
    split in ``tests/test_reconfig.py``.
    """

    def assert_clean(self, cluster):
        auditor = cluster.auditor
        procedures = set(cluster.registry.names()) - {MIGRATION_PROC}
        assert set(auditor.procedures) == procedures
        for name in procedures:
            record = auditor.procedures[name]
            assert record.txns > 0
            assert record.over_reads == 0, record
            assert record.over_writes == 0, record
            assert record.under_declared == 0
        table = auditor.render_table()
        for name in procedures:
            assert name in table
        assert "under-declared accesses: 0" in table

    def test_microbenchmark_reports_no_over_declaration(self):
        cluster = run_cluster(micro())
        self.assert_clean(cluster)
        snapshot = cluster.metrics_registry.snapshot()
        assert snapshot["audit.footprint.txns_observed"] > 0
        assert snapshot["audit.footprint.over_declared_reads"] == 0
        assert snapshot["audit.footprint.over_declared_writes"] == 0
        assert snapshot["audit.footprint.under_declared"] == 0

    def test_ycsb_reports_no_over_declaration(self):
        self.assert_clean(run_cluster(YcsbWorkload(records_per_partition=200)))

    def test_tpcc_reports_no_over_declaration(self):
        # Seed 3 commits every TPC-C procedure at least twice within the
        # clients' 80 transactions (seed 2012 never draws order_status).
        self.assert_clean(run_cluster(TpccWorkload(), seed=3))

    def test_auditor_off_by_default(self):
        cluster = run_cluster(micro(), audit=False)
        assert cluster.auditor is None


class TestAuditingContext:
    def make_context(self, auditor):
        txn = Transaction.create(
            txn_id=1, procedure="p", args=None,
            read_set=[("a", 0)], write_set=[("a", 0), ("b", 0)],
        )
        return txn, auditor.make_context(txn, {("a", 0): 41})

    def test_accesses_recorded(self):
        auditor = FootprintAuditor()
        txn, context = self.make_context(auditor)
        assert context.read(("a", 0)) == 41
        context.write(("b", 0), 1)
        context.delete(("a", 0))
        assert context.audit_reads == {("a", 0)}
        assert context.audit_writes == {("a", 0), ("b", 0)}

    def test_under_declared_read_recorded_and_still_raises(self):
        auditor = FootprintAuditor()
        txn, context = self.make_context(auditor)
        with pytest.raises(FootprintViolation):
            context.read(("ghost", 0))
        with pytest.raises(FootprintViolation):
            context.write(("ghost", 0), 1)
        record = auditor.procedures["p"]
        assert record.under_declared == 2
        assert ("read", ("ghost", 0)) in record.under_declared_samples
        assert auditor.total_under_declared == 2
        assert "under-declared accesses: 2" in auditor.render_table()

    def test_observe_counts_unused_declared_keys(self):
        from repro.txn.result import TxnStatus

        auditor = FootprintAuditor()
        txn, context = self.make_context(auditor)
        context.read(("a", 0))          # ("b", 0) write never happens
        auditor.observe(txn, context, TxnStatus.COMMITTED, is_reply=True)
        record = auditor.procedures["p"]
        assert record.txns == 1
        assert record.over_reads == 0
        assert record.over_writes == 2  # both write-set keys unused
        assert auditor.over_declared_procedures == {"p"}

    def test_observe_skips_non_reply_and_aborts(self):
        from repro.txn.result import TxnStatus

        auditor = FootprintAuditor()
        txn, context = self.make_context(auditor)
        auditor.observe(txn, context, TxnStatus.COMMITTED, is_reply=False)
        auditor.observe(txn, context, TxnStatus.ABORTED, is_reply=True)
        assert auditor.procedures == {}


class TestAuditScope:
    def test_scope_arms_cluster_construction(self):
        assert not audit_armed()
        with audit_scope() as scope:
            assert audit_armed()
            cluster = run_cluster(micro(), audit=False)
            assert cluster.auditor is not None
            assert scope.auditors == [cluster.auditor]
        assert not audit_armed()
        merged = scope.merged()
        assert merged.procedures["micro"].txns > 0

    def test_merged_folds_multiple_clusters(self):
        with audit_scope() as scope:
            first = run_cluster(micro(), audit=False)
            second = run_cluster(micro(), audit=False, seed=7)
        merged = scope.merged()
        expected = (
            first.auditor.procedures["micro"].txns
            + second.auditor.procedures["micro"].txns
        )
        assert merged.procedures["micro"].txns == expected
