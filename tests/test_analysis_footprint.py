"""Footprint gate over the house tree: every procedure the house
workloads register commits under the runtime auditor with nothing
over- or under-declared, folded into one report the way
``--audit-footprints`` folds a sweep.
"""

from repro.analysis import audit_scope
from repro.partition.catalog import MIGRATION_PROC
from repro.workloads.tpcc.workload import TpccWorkload
from repro.workloads.ycsb import YcsbWorkload
from tests.test_footprint_auditor import micro, run_cluster


class TestHouseTree:
    def test_repository_procedures_are_clean(self):
        # micro, YCSB and TPC-C in one audit scope. ``__migration__`` is
        # excluded for the reason given in test_footprint_auditor's
        # TestWorkloadReports. Seed 3 draws every TPC-C procedure.
        with audit_scope() as scope:
            clusters = [
                run_cluster(micro(), audit=False),
                run_cluster(YcsbWorkload(records_per_partition=200),
                            audit=False),
                run_cluster(TpccWorkload(), audit=False, seed=3),
            ]
        registered = set()
        for cluster in clusters:
            registered |= set(cluster.registry.names())
        registered.discard(MIGRATION_PROC)
        merged = scope.merged()
        assert set(merged.procedures) == registered
        assert all(record.txns > 0 for record in merged.procedures.values())
        assert merged.over_declared_procedures == set()
        assert merged.total_under_declared == 0
