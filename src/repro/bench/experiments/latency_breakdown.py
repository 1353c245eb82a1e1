"""Latency decomposition vs multipartition fraction.

Calvin's latency has two structural parts: the sequencing wait (epoch
batching, roughly half an epoch at low contention) and execution (lock
queueing plus local work plus, for multipartition transactions, the
remote-read exchange). This experiment separates them — showing that
the deterministic protocol's latency floor comes from batching, not
from coordination, and that multipartition transactions pay one
remote-read round trip rather than a commit protocol.

The phase columns come straight from the tracing subsystem: each run
records typed spans (:class:`repro.obs.SpanKind`) and the table reports
their mean durations over the measurement window — the same data
``python -m repro trace`` renders interactively.
"""

from __future__ import annotations

from repro.bench.harness import ScaleProfile, measure
from repro.bench.reporting import ExperimentResult
from repro.config import ClusterConfig
from repro.obs import SpanKind, TraceRecorder, phase_means
from repro.workloads.microbenchmark import Microbenchmark

MP_FRACTIONS = (0.0, 0.1, 0.5, 1.0)


def run(scale: str = "quick", seed: int = 2012, machines: int = 2) -> ExperimentResult:
    profile = ScaleProfile.get(scale)
    result = ExperimentResult(
        experiment="Latency breakdown",
        title="Latency decomposition vs multipartition fraction",
        headers=(
            "mp %",
            "p50 ms",
            "p99 ms",
            "sequence ms",
            "lock wait ms",
            "execute ms",
            "remote read ms",
        ),
        notes="phase columns are mean span durations from the trace recorder "
        "(measurement window only): sequence = submit -> epoch close, "
        "lock wait = admission -> all locks granted, remote read = waiting "
        "on other partitions' values; "
        "clients kept below saturation so queueing does not mask the floor",
    )
    for mp_fraction in MP_FRACTIONS:
        workload = Microbenchmark(mp_fraction=mp_fraction, hot_set_size=10000)
        config = ClusterConfig(num_partitions=machines, seed=seed)
        tracer = TraceRecorder()
        report = measure(
            workload, config, profile,
            clients_per_partition=max(20, profile.clients_per_partition // 8),
            tracer=tracer,
        )
        means = phase_means(tracer.spans, since=profile.warmup)
        result.add_row(
            int(mp_fraction * 100),
            report.latency_p50 * 1e3,
            report.latency_p99 * 1e3,
            means.get(SpanKind.SEQUENCE, 0.0) * 1e3,
            means.get(SpanKind.LOCK_WAIT, 0.0) * 1e3,
            means.get(SpanKind.EXECUTE, 0.0) * 1e3,
            means.get(SpanKind.REMOTE_READ_WAIT, 0.0) * 1e3,
        )
    return result


if __name__ == "__main__":
    print(run())
