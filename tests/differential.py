"""Cross-process determinism differential: one line of digests per run.

``python -m tests.differential [PLANT]`` (repo root and ``src`` on
``PYTHONPATH``) drives every supported cell of the capability table
(``tests/test_capabilities.py``) and the microbenchmark, TPC-C and YCSB
workloads, and prints for each cluster built its trace digest, its
final-state fingerprint and a digest of the footprints its input log
carries, key by key. ``tests/test_determinism_deep.py`` runs it in two
interpreters that differ in everything a run must not depend on:

- ``PYTHONHASHSEED`` 0 and 1, which reorders any set of salted keys;
- the allocator (``PYTHONMALLOC=malloc`` on one side), which reorders
  ``id()``;
- the wall clock, which is never the same in two processes.

The two outputs must be identical. ``PLANT`` names one entry of
:data:`PLANTS`, a hazard monkeypatched into this process before any
cluster is built, and limits the runs to the workloads it touches.
"""

from __future__ import annotations

import hashlib
import sys
from datetime import datetime

import tests.test_capabilities as cells
from repro import ClientProfile, ClusterConfig, TpccWorkload, YcsbWorkload
from repro.engines import UNSUPPORTED, build_cluster
from repro.obs import TraceRecorder
from repro.storage.recovery import fingerprint_data
from repro.workloads.tpcc import keys, procedures

WORKLOADS = {
    "micro": cells._workload,
    "tpcc": TpccWorkload,  # default mix: dependent (OLLP) types included
    "ycsb": lambda: YcsbWorkload(records_per_partition=200, keys_per_txn=4, mp_fraction=0.5),
}


def _set_order_keys():
    """YCSB footprint keys taken through a ``set``: salted-hash order."""
    draw = YcsbWorkload._draw_keys
    YcsbWorkload._draw_keys = lambda self, *args: list(set(draw(self, *args)))


def _address_order_keys():
    """YCSB footprint keys sorted by ``id()``: allocator order."""
    draw = YcsbWorkload._draw_keys
    YcsbWorkload._draw_keys = lambda self, *args: sorted(draw(self, *args), key=id)


def _wall_clock_district():
    """New Order stamps ``datetime.now()`` into its district row."""
    logic = procedures.new_order_logic

    def stamped(ctx):
        total = logic(ctx)
        key = keys.district(ctx.args["w"], ctx.args["d"])
        ctx.write(key, {**ctx.read(key), "stamp": datetime.now().microsecond})
        return total

    procedures.new_order_logic = stamped


#: Plant name -> (monkeypatch, the workloads it touches).
PLANTS = {
    "set-order": (_set_order_keys, ("ycsb",)),
    "id-order": (_address_order_keys, ("ycsb",)),
    "datetime-now": (_wall_clock_district, ("tpcc",)),
}


def _digests(cluster, tracer) -> str:
    footprints = hashlib.sha256()
    logged = dependent = 0
    if hasattr(cluster, "merged_log"):  # the baseline keeps no input log
        for entry in cluster.merged_log():
            for txn in entry.txns:
                footprints.update(repr((txn.txn_id, txn.read_set, txn.write_set)).encode())
                logged += 1
                dependent += txn.dependent
    return (f"{tracer.digest()} {fingerprint_data(cluster.final_state())} "
            f"{footprints.hexdigest()} {logged} {dependent}")


def _traced_builds(built):
    """``cells.build_cluster`` with a recorder on every cluster it builds."""
    build = cells.build_cluster

    def traced(config, **kwargs):
        tracer = TraceRecorder()
        cluster = build(config, tracer=tracer, **kwargs)
        built.append((cluster, tracer))
        return cluster

    return traced


def run_cells() -> None:
    built = []
    cells.build_cluster = _traced_builds(built)
    for feature, engine in cells.CELLS:
        if UNSUPPORTED[engine].get(feature) is None:
            built.clear()
            cells.SUPPORTED[feature](engine)
            for index, (cluster, tracer) in enumerate(built):
                print(f"{feature}-{engine}.{index}", _digests(cluster, tracer))


def run_workloads(names) -> None:
    for name in names:
        tracer = TraceRecorder()
        cluster = build_cluster(
            ClusterConfig(num_partitions=2, seed=21), workload=WORKLOADS[name](),
            tracer=tracer,
        )
        cluster.load_workload_data()
        cluster.add_clients(ClientProfile(per_partition=4, max_txns=8))
        cluster.run(duration=0.2)
        cluster.quiesce()
        print(name, _digests(cluster, tracer))


def main(argv) -> None:
    if argv:
        plant, touched = PLANTS[argv[0]]
        plant()
        run_workloads(touched)
    else:
        run_cells()
        run_workloads(WORKLOADS)


if __name__ == "__main__":
    main(sys.argv[1:])
