"""Cross-process determinism differential: digest lines per run and epoch.

``python -m tests.differential [reversed] [PLANT]`` (repo root and
``src`` on ``PYTHONPATH``) drives every supported cell of the
capability table (``tests/test_capabilities.py``), the
:data:`EXTRA_CELLS`, and the microbenchmark, TPC-C and YCSB workloads.
For each cluster built it prints one line with its trace digest, its
final-state fingerprint and a digest of the footprints its input log
carries, key by key; then one ``<name>@<epoch>`` line per sequencing
epoch with the digest and count of that epoch's spans.
``tests/test_determinism_deep.py`` runs it in two interpreters that
differ in everything a run must not depend on:

- ``PYTHONHASHSEED`` 0 and 1, which reorders any set of salted keys;
- the allocator (``PYTHONMALLOC=malloc`` on one side), which reorders
  ``id()``;
- the wall clock, which is never the same in two processes;
- the order of the runs (``reversed`` on one side), so state one run
  leaks into the next in the same process changes a line.

The two outputs must hold the same lines, name by name. ``PLANT`` names
one entry of :data:`PLANTS`, a hazard monkeypatched into this process
before any cluster is built, and limits the runs to the workloads it
touches.

``python -m tests.differential [reversed] spans NAME EPOCH [PLANT]``
repeats only the run that builds cluster ``NAME`` and prints the
canonical tuple of each span of its epoch ``EPOCH``, one per line:
where two epoch lines differ, the first span that does.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import sys
from datetime import datetime
from functools import partial
from typing import Dict, List, Tuple

import tests.test_capabilities as cells
from repro import CalvinCluster, ClientProfile, ClusterConfig, TpccWorkload, YcsbWorkload
from repro.engines import UNSUPPORTED
from repro.obs import TraceRecorder
from repro.obs.spans import CAT_EPOCH, Span
from repro.partition.catalog import NodeId, node_address
from repro.partition.partitioner import FootprintKeys
from repro.storage.kvstore import fingerprint_data
from repro.workloads.microbenchmark import Microbenchmark
from repro.workloads.tpcc import keys, procedures

WORKLOADS = {
    "micro": cells._workload,
    "tpcc": TpccWorkload,  # default mix: dependent (OLLP) types included
    "ycsb": lambda: YcsbWorkload(records_per_partition=200, keys_per_txn=4, mp_fraction=0.5),
}

#: Cells on the core engine beyond the capability table's, as config
#: changes to its two-partition cell: a wide cluster. (WAN routing is
#: the table's own ``topology-core`` cell, at two replicas.)
EXTRA_CELLS = {
    "wide": dict(num_partitions=16),
}

#: Spans whose virtual start precedes epoch 0's close land in epoch 0.
_EPS = 1e-12


def span_epoch(span: Span, epoch_duration: float) -> int:
    """The sequencing epoch a span belongs to.

    Sequenced spans carry it exactly (``seq[0]``); epoch-category spans
    carry it as ``detail``; everything else (device, node background) is
    binned by virtual start time.
    """
    if span.seq is not None:
        return span.seq[0]
    if span.cat == CAT_EPOCH and isinstance(span.detail, int):
        return span.detail
    return int((span.start + _EPS) / epoch_duration)


def epoch_digests(spans: List[Span], epoch_duration: float) -> Dict[int, Tuple[str, int]]:
    """Per-epoch ``(sha256, span_count)`` over canonical span tuples.

    Record order within an epoch is part of what must match, as it is
    of the whole-run digest (:meth:`TraceRecorder.digest`).
    """
    grouped: Dict[int, List] = {}
    for span in spans:
        grouped.setdefault(span_epoch(span, epoch_duration), []).append(span.canonical())
    return {
        epoch: (hashlib.sha256(repr(entries).encode()).hexdigest(), len(entries))
        for epoch, entries in grouped.items()
    }


# -- planted hazards ----------------------------------------------------------


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


_generated = itertools.count()


def _module_counter():
    """The microbenchmark and YCSB keep only the first key of the first
    16 requests they generate, counted by a module-level counter that no
    run resets: only the first run of a process warms up. It reads no
    hash, ``id()``, clock or entropy; only the order of the runs shows it."""
    for workload in (Microbenchmark, YcsbWorkload):
        def warming(self, *args, _generate=workload.generate):
            spec = _generate(self, *args)
            if next(_generated) >= 16:
                return spec
            first = FootprintKeys(spec.read_set[:1])
            writes = first if spec.write_set else spec.write_set
            return spec._replace(read_set=first, write_set=writes)

        workload.generate = warming


def _frozen_sequencer():
    """Partition 0's sequencer is frozen at 31 ms and thawed after an
    ambient-random delay: its parked tick replays late, so runs agree
    before epoch 3 and split from there."""
    add_clients = CalvinCluster.add_clients

    def add_and_freeze(cluster, profile):
        added = add_clients(cluster, profile)
        owner = node_address(NodeId(0, 0))

        def freeze():
            cluster.sim.suspend_owner(owner)
            cluster.sim.schedule(
                0.012 + random.random() * 1e-4, lambda: cluster.sim.resume_owner(owner),
            )

        cluster.sim.schedule(0.031, freeze)
        return added

    CalvinCluster.add_clients = add_and_freeze


#: Plant name -> (monkeypatch, the workloads it touches).
PLANTS = {
    "set-order": (_set_order_keys, ("ycsb",)),
    "id-order": (_address_order_keys, ("ycsb",)),
    "datetime-now": (_wall_clock_district, ("tpcc",)),
    "module-counter": (_module_counter, ("micro", "ycsb")),
    "frozen-sequencer": (_frozen_sequencer, ("micro",)),
}


# -- the runs -----------------------------------------------------------------


def _run_workload(name) -> None:
    cluster = cells.build_cluster(
        ClusterConfig(num_partitions=2, seed=21), workload=WORKLOADS[name]()
    )
    cluster.load_workload_data()
    cluster.add_clients(ClientProfile(per_partition=4, max_txns=8))
    cluster.run(duration=0.2)
    cluster.quiesce()


def _cell_runs():
    """Cell name -> its drive: every supported capability cell, then the
    extra cells."""
    runs = {
        f"{feature}-{engine}": partial(cells.SUPPORTED[feature], engine)
        for feature, engine in cells.CELLS
        if UNSUPPORTED[engine].get(feature) is None
    }
    for name, changes in EXTRA_CELLS.items():
        config = cells._config("core").with_changes(**changes)
        runs[f"{name}-core"] = partial(cells.run_config, config)
    return runs


def _clusters(name, drive):
    """``(line name, cluster, tracer)`` of every cluster run ``name``
    builds: a cell's are numbered, a workload's one is not."""
    built = []
    build = cells.build_cluster

    def traced(config, **kwargs):
        tracer = TraceRecorder()
        built.append((build(config, tracer=tracer, **kwargs), tracer))
        return built[-1][0]

    cells.build_cluster = traced
    try:
        drive()
    finally:
        cells.build_cluster = build
    if name in WORKLOADS:
        return [(name, *built[0])]
    return [(f"{name}.{index}", *pair) for index, pair in enumerate(built)]


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


def main(argv) -> None:
    backwards = argv[:1] == ["reversed"]
    argv = argv[backwards:]
    wanted = None
    if argv[:1] == ["spans"]:
        wanted, epoch, *argv = argv[1:]
    if argv:
        plant, touched = PLANTS[argv[0]]
        plant()
        runs = {}
    else:
        touched, runs = WORKLOADS, _cell_runs()
    runs.update((name, partial(_run_workload, name)) for name in touched)
    if wanted is not None:
        name = wanted.split(".")[0]
        for line_name, cluster, tracer in _clusters(name, runs[name]):
            if line_name == wanted:
                duration = cluster.config.epoch_duration
                for span in tracer.spans:
                    if span_epoch(span, duration) == int(epoch):
                        print(repr(span.canonical()))
        return
    for name in list(runs)[::-1] if backwards else runs:
        for line_name, cluster, tracer in _clusters(name, runs[name]):
            print(line_name, _digests(cluster, tracer))
            per_epoch = epoch_digests(tracer.spans, cluster.config.epoch_duration)
            for epoch, (digest, count) in sorted(per_epoch.items()):
                print(f"{line_name}@{epoch} {digest} {count}")


if __name__ == "__main__":
    main(sys.argv[1:])
