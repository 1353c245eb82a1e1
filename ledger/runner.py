"""The run protocol: repetitions, digests, the verify pass, the metrics.

One *repetition* builds a fresh cluster from the seed, so every
repetition of a workload does bit-identical simulated work; only host
time differs between them. Set-up (construct, load, attach, start,
virtual warm-up) is timed apart from the window, and digests, checkers
and registry reads stay outside both timers.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import resource
import statistics
import sys
import time
from dataclasses import asdict
from typing import Any, Callable, ContextManager, Dict, List, Tuple

from repro import (
    check_conflict_order,
    check_epoch_contiguity,
    check_no_double_apply,
    check_no_lost_commits,
    check_replica_consistency,
    check_replica_prefix_consistency,
    check_serializability,
)

from ledger import trace
from ledger.calibration import Probe, reference_seconds
from ledger.workloads import BY_NAME, SPLIT_AT, VERIFY_WINDOW, WARMUP, WorkloadSpec, build

MIN_REPETITIONS = 5
MAX_REPETITIONS = 8
SMOKE_REPETITIONS = 2
# The discarded first repetition only has to warm the interpreter's
# specialised bytecode and the allocator, so it runs a shorter window.
DISCARD_WINDOW_SHARE = 0.25
# A traced run needs the untraced window time of its own process to
# scale layer shares into microseconds; two repetitions give it.
TRACE_UNTRACED_REPETITIONS = 2
# The workload the optional compiled-kernel row is measured on: the one
# where kernel dispatch has the largest share.
ACCEL_WORKLOAD = "micro-low"
# Slices of a timed window, each scaled by its own host-speed reading.
SLICES = 20


class LedgerError(Exception):
    """A correctness check of the benchmark failed."""


# -- one repetition -----------------------------------------------------------


def sim_digest(cluster, admin) -> str:
    """Fingerprint of everything virtual a repetition produced."""
    digest = hashlib.sha256()
    metrics = cluster.metrics
    digest.update(
        repr((cluster.sim.events_executed, metrics.committed, metrics.aborted)).encode()
    )
    for entry in cluster.merged_log():
        digest.update(
            repr(
                (entry.epoch, entry.origin_partition, [txn.txn_id for txn in entry.txns])
            ).encode()
        )
    for item in sorted(map(repr, cluster.final_state().items())):
        digest.update(item.encode())
    if admin is not None:
        digest.update(repr(admin.events).encode())
    return digest.hexdigest()


def _counts(cluster) -> Dict[str, float]:
    """Registry snapshot plus the open-loop clients' own tallies."""
    counts = dict(cluster.metrics_registry.snapshot())
    counts["client.arrivals"] = sum(getattr(c, "arrivals", 0) for c in cluster.clients)
    counts["client.retried"] = sum(getattr(c, "retried", 0) for c in cluster.clients)
    return counts


def _timed_window(
    sim, window: float, probe: Probe, tracer: ContextManager
) -> Tuple[float, float]:
    """Run the window; return (wall seconds, reference-machine seconds).

    The window runs as SLICES consecutive ``sim.run`` calls with a
    probe reading between them, so that each slice is scaled by the
    host speed measured right next to it (see ledger/calibration.py).
    The simulated work is the same as one call's. ``tracer`` is entered
    around every slice: the profiler of a traced repetition, else a no-op.
    """
    ends = [WARMUP + window * k / SLICES for k in range(1, SLICES)] + [WARMUP + window]
    wall = reference = 0.0
    probe_before = probe.seconds()
    for until in ends:
        began = time.perf_counter()
        with tracer:
            sim.run(until=until)
        elapsed = time.perf_counter() - began
        probe_after = probe.seconds()
        wall += elapsed
        reference += reference_seconds(elapsed, probe_before, probe_after)
        probe_before = probe_after
    return wall, reference


def repetition(
    spec: WorkloadSpec, seed: int, window: float, probe: Probe, traced: bool = False
) -> Dict[str, Any]:
    """Set up, run the timed window once, read everything afterwards."""
    probe_before = probe.seconds()
    start = time.perf_counter()
    cluster, admin = build(spec, seed, window)
    sim = cluster.sim
    sim.run(until=WARMUP)
    cluster.metrics.begin_window(sim.now)
    setup_wall = time.perf_counter() - start
    setup_s = reference_seconds(setup_wall, probe_before, probe.seconds())

    gc.collect()
    before = _counts(cluster)
    profiler = trace.new_profiler() if traced else None
    wall, reference = _timed_window(sim, window, probe, profiler or contextlib.nullcontext())
    after = _counts(cluster)

    latency = cluster.metrics.latency
    record: Dict[str, Any] = {
        "setup_s": setup_s,
        "setup_wall_s": setup_wall,
        "window_s": reference,
        "window_wall_s": wall,
        "window_virtual_s": window,
        "committed": int(after["txn.committed"] - before["txn.committed"]),
        "aborted": int(after["txn.aborted"] - before["txn.aborted"]),
        "arrivals": int(after["client.arrivals"] - before["client.arrivals"]),
        "events": int(after["sim.events_executed"] - before["sim.events_executed"]),
        "latency_samples": latency.count,
        "sim_latency_p50_ms": latency.percentile(50) * 1e3,
        "sim_latency_p99_ms": latency.percentile(99) * 1e3,
        "sim_digest": sim_digest(cluster, admin),
    }
    if profiler is not None:
        record["layer_counts"] = _layer_counts(cluster, admin, before, after, window)
        record["trace"] = _reduce_trace(trace.function_table(profiler), cluster)
    return record


# -- verify pass ----------------------------------------------------------------


def verify(spec: WorkloadSpec, seed: int) -> Dict[str, Any]:
    """Bounded run with history on; every checker must pass.

    Returns what each checker inspected. ``check_conflict_order`` maps
    keys to partitions with the static partitioner, so after a migration
    it compares finish orders on a partition that no longer owns the
    key and reports a false violation; it is skipped, by name, on the
    workload that migrates.
    """
    cluster, _admin = build(spec, seed, VERIFY_WINDOW, verify=True)
    cluster.sim.run(until=WARMUP + VERIFY_WINDOW)
    cluster.quiesce()
    checked: Dict[str, Any] = {
        "check_serializability": check_serializability(cluster),
        "check_conflict_order": (
            "skipped: not epoch-aware, false positives after a migration"
            if spec.reconfig
            else check_conflict_order(cluster)
        ),
        "check_no_double_apply": check_no_double_apply(cluster),
        "check_no_lost_commits": check_no_lost_commits(cluster),
        "check_epoch_contiguity": check_epoch_contiguity(cluster),
    }
    check_replica_consistency(cluster)
    checked["check_replica_consistency"] = cluster.config.num_replicas
    if cluster.config.num_replicas > 1:
        checked["check_replica_prefix_consistency"] = check_replica_prefix_consistency(
            cluster
        )
    if not cluster.metrics.committed:
        raise LedgerError(f"{spec.name}: verify pass committed nothing")
    return checked


# -- per-layer numbers ------------------------------------------------------------


def _layer_counts(cluster, admin, before, after, window: float) -> Dict[str, Tuple[float, str]]:
    """Exact (value, unit) counts at layer boundaries over the window.

    Everything is a registry or client-tally delta, so it repeats
    exactly for a seed.
    """

    def change(key: str) -> float:
        return after.get(key, 0) - before.get(key, 0)

    def total(prefix: str, suffix: str) -> float:
        return sum(
            change(key) for key in after if key.startswith(prefix) and key.endswith(suffix)
        )

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    def window_mean_ms(name: str) -> float:
        summed = (
            after[f"{name}.count"] * after[f"{name}.mean"]
            - before[f"{name}.count"] * before[f"{name}.mean"]
        )
        return ratio(summed, change(f"{name}.count")) * 1e3

    committed = change("txn.committed")
    # Accept rounds per decision are a leader's number: followers decide
    # without sending accepts.
    leader_decided = sum(
        change(key)
        for key in after
        if key.endswith(".paxos.decided")
        and change(key.replace(".decided", ".accepts_sent")) > 0
    )
    split_flip_ms = 0.0
    if admin is not None:
        flips = [event.epoch for event in admin.events if event.kind == "split"]
        if flips:
            armed = WARMUP + SPLIT_AT * window
            split_flip_ms = (flips[0] * cluster.config.epoch_duration - armed) * 1e3
    return {
        "sim.events_per_txn": (ratio(change("sim.events_executed"), committed), "1/txn"),
        "scheduler.executor.sim_exec_ms_mean": (window_mean_ms("txn.execution"), "ms"),
        "scheduler.lockmanager.immediate_grant_ratio": (
            ratio(total("node.", ".locks.immediate_grants"), total("node.", ".locks.grants")),
            "ratio",
        ),
        "sim.network.messages_per_txn": (ratio(change("net.messages_sent"), committed), "1/txn"),
        "sim.network.bytes_per_txn": (ratio(change("net.bytes_sent"), committed), "B/txn"),
        "geo.wan_bytes_per_txn": (ratio(change("net.wan_bytes"), committed), "B/txn"),
        "geo.hops_forwarded_per_txn": (ratio(change("net.hops_forwarded"), committed), "1/txn"),
        # A gauge over the whole run, warm-up included.
        "geo.max_link_utilization": (
            max(
                (
                    value
                    for key, value in after.items()
                    if key.startswith("net.link.") and key.endswith(".utilization")
                ),
                default=0.0,
            ),
            "ratio",
        ),
        "geo.queueing_delay_s": (total("net.link.", ".queueing_delay"), "s"),
        "paxos.decided": (total("node.", ".paxos.decided"), "count"),
        "paxos.accepts_per_decision": (
            ratio(total("node.", ".paxos.accepts_sent"), leader_decided),
            "ratio",
        ),
        "paxos.elections": (total("node.", ".paxos.elections"), "count"),
        "paxos.nacks": (total("node.", ".paxos.nacks_received"), "count"),
        "sequencer.txns_per_batch": (
            ratio(
                total("node.r0p", ".seq.txns_sequenced"),
                total("node.r0p", ".seq.batches_dispatched"),
            ),
            "txn",
        ),
        "sequencer.sim_wait_ms_mean": (window_mean_ms("txn.sequencing"), "ms"),
        "core.clients.admission_rejected_ratio": (
            ratio(
                total("node.", ".admission.backpressured"), total("node.", ".admission.offered")
            ),
            "ratio",
        ),
        "core.clients.retries_per_arrival": (
            ratio(change("client.retried"), change("client.arrivals")),
            "ratio",
        ),
        "core.clients.admission_peak_queue_depth": (
            cluster.admission_stats()["peak_queue_depth"],
            "count",
        ),
        "reconfig.keys_moved": (change("reconfig.keys_moved"), "count"),
        "reconfig.events": (change("reconfig.events"), "count"),
        "reconfig.split_flip_sim_ms": (split_flip_ms, "ms"),
    }


def _reduce_trace(stats, cluster) -> Dict[str, Any]:
    """Layer self times and calls, plus entry-point cumulative times."""
    self_time, calls = trace.attribute(stats)
    entry = {
        name: trace.entry_point_stats(stats, prefix, functions)
        for name, (prefix, functions) in trace.ENTRY_POINTS.items()
    }
    registry = cluster.registry
    entry["workloads.logic_us_per_call"] = trace.code_stats(
        stats, [registry.get(name).logic for name in registry.names()]
    )
    resumes, _ = trace.entry_point_stats(
        stats, "scheduler/executor.py", ("run_transaction", "run_migration", "apply_replicated")
    )
    return {
        "self_s": self_time,
        "calls": calls,
        "entry_points": {name: list(value) for name, value in entry.items()},
        "executor_resumes": resumes,
    }


# -- metrics ------------------------------------------------------------------------


def _summary(values: List[float], unit: str) -> Dict[str, Any]:
    """Median with quartiles and the sample count."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "value": statistics.median(values),
        "unit": unit,
        "q1": q1,
        "q3": q3,
        "n": len(values),
    }


def failed_share(spec: WorkloadSpec, rep: Dict[str, Any]) -> float:
    """Share of requests that did not commit inside the window."""
    if spec.loop == "open":
        return 1.0 - rep["committed"] / rep["arrivals"]
    return rep["aborted"] / (rep["committed"] + rep["aborted"])


def end_to_end(
    spec: WorkloadSpec, reps: List[Dict[str, Any]], peak_rss_mb: float
) -> Dict[str, Dict[str, Any]]:
    def over(fn: Callable[[Dict[str, Any]], float], unit: str) -> Dict[str, Any]:
        return _summary([fn(rep) for rep in reps], unit)

    return {
        "host_txn_per_s": over(lambda r: r["committed"] / r["window_s"], "txn/s"),
        "setup_s": over(lambda r: r["setup_s"], "s"),
        "peak_rss_mb": _summary([peak_rss_mb], "MB"),
        "sim_txn_per_s": over(lambda r: r["committed"] / r["window_virtual_s"], "txn/s"),
        "sim_latency_p50_ms": over(lambda r: r["sim_latency_p50_ms"], "ms"),
        "sim_latency_p99_ms": over(lambda r: r["sim_latency_p99_ms"], "ms"),
        "committed_share": over(lambda r: 1.0 - failed_share(spec, r), "fraction"),
    }


def per_layer(
    spec: WorkloadSpec, untraced: List[Dict[str, Any]], traced: Dict[str, Any]
) -> Dict[str, Dict[str, Any]]:
    """Per-layer metrics of one traced repetition.

    ``us_per_txn`` scales a layer's share of traced self time by the
    *untraced* window, so the profiler's inflation cancels to first order.
    """
    committed = traced["committed"]
    untraced_s = statistics.median(rep["window_s"] for rep in untraced)
    tr = traced["trace"]
    total_self = sum(tr["self_s"].values())
    metrics: Dict[str, Dict[str, Any]] = {}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = {"value": value, "unit": unit}

    for layer in trace.LAYERS:
        share = tr["self_s"][layer] / total_self
        put(f"{layer}.self_share", share, "fraction")
        put(f"{layer}.us_per_txn", share * untraced_s / committed * 1e6, "us/txn")
        put(f"{layer}.calls_per_txn", tr["calls"][layer] / committed, "1/txn")
    put("trace.overhead_ratio", traced["window_s"] / untraced_s, "ratio")
    put("sim.host_events_per_s", traced["events"] / untraced_s, "1/s")
    put("scheduler.executor.resumes_per_txn", tr["executor_resumes"] / committed, "1/txn")
    for name, (ncalls, cumulative) in tr["entry_points"].items():
        put(name, cumulative / ncalls * 1e6 if ncalls else 0.0, "us")
    for name, (value, unit) in traced["layer_counts"].items():
        put(name, value, unit)
    put("failed_share", failed_share(spec, traced), "fraction")
    return metrics


# -- one workload --------------------------------------------------------------------


def peak_rss_mb() -> float:
    scale = 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / scale


def _same_digest(spec: WorkloadSpec, reps: List[Dict[str, Any]]) -> str:
    digests = {rep["sim_digest"] for rep in reps}
    if len(digests) != 1:
        raise LedgerError(
            f"{spec.name}: sim_digest differs between repetitions of one seed: "
            f"{sorted(digests)}"
        )
    return digests.pop()


def accel_row(
    spec: WorkloadSpec, seed: int, window: float, probe: Probe, pure: List[Dict[str, Any]]
) -> Dict[str, Any]:
    """``sim.accel_host_txn_ratio``: compiled kernel over pure path.

    Measured only when the extension already imports; the ledger never
    builds it. ``repro.accel.force`` flips the kernel for one repetition
    in this process, which must reproduce the pure path's digest.
    """
    from repro import accel

    if not accel.accel_available():
        reason = accel.accel_status()["import_error"]
        return {"value": None, "reason": f"repro.accel._accelcore is not built: {reason}"}
    accel.force(True)
    try:
        rep = repetition(spec, seed, window, probe)
    finally:
        accel.force(None)
    if rep["sim_digest"] != pure[0]["sim_digest"]:
        raise LedgerError(f"{spec.name}: compiled kernel changed the sim_digest")
    pure_rate = statistics.median(r["committed"] / r["window_s"] for r in pure)
    return {
        "value": rep["committed"] / rep["window_s"] / pure_rate,
        "unit": "ratio",
        "base": "pure-path median of the same process",
    }


def run_workload(
    name: str, seed: int, seconds: float, traced: bool, smoke: bool = False
) -> Dict[str, Any]:
    """Run one workload in this process and return its result record.

    Untraced: one discarded repetition, then measured repetitions until
    ``seconds`` of timed window have accumulated (at least
    MIN_REPETITIONS), the memory reading, then the verify pass. Traced:
    a discarded repetition, a few untraced ones for the reference
    window time, one traced one, and the verify pass.
    """
    spec = BY_NAME[name]
    window = spec.smoke_window if smoke else spec.window
    probe = Probe()
    repetition(spec, seed, window * DISCARD_WINDOW_SHARE, probe)

    reps: List[Dict[str, Any]] = []
    if smoke:
        floor = ceiling = 1 if traced else SMOKE_REPETITIONS
    elif traced:
        floor = ceiling = TRACE_UNTRACED_REPETITIONS
    else:
        floor, ceiling = MIN_REPETITIONS, MAX_REPETITIONS
    measured = 0.0
    while len(reps) < floor or (len(reps) < ceiling and measured < seconds):
        reps.append(repetition(spec, seed, window, probe))
        measured += reps[-1]["window_wall_s"]
    rss = peak_rss_mb()

    result: Dict[str, Any] = {
        "workload": name,
        "why": spec.why,
        "loop": spec.loop,
        "seed": seed,
        "traced": traced,
        "config": asdict(spec.config(seed)),
        "clients": {k: v for k, v in asdict(spec.profile(window)).items() if k != "workload"},
        "warmup_virtual_s": WARMUP,
        "window_virtual_s": window,
        "repetitions": reps,
    }
    if traced:
        traced_rep = repetition(spec, seed, window, probe, traced=True)
        result["traced_repetition"] = traced_rep
        result["per_layer"] = per_layer(spec, reps, traced_rep)
        result["sim_digest"] = _same_digest(spec, reps + [traced_rep])
        if name == ACCEL_WORKLOAD:
            result["optional"] = {
                "sim.accel_host_txn_ratio": accel_row(spec, seed, window, probe, reps)
            }
    else:
        result["end_to_end"] = end_to_end(spec, reps, rss)
        result["sim_digest"] = _same_digest(spec, reps)
    result["verify"] = verify(spec, seed)
    result["attempted"] = sum(
        rep["arrivals"] if spec.loop == "open" else rep["committed"] + rep["aborted"]
        for rep in reps
    )
    return result
