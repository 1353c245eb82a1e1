"""Run metrics: throughput, latency, outcome counts.

One :class:`Metrics` instance per cluster collects completions (from the
reply partitions of replica 0, so each transaction counts once) and
client-observed latencies. ``report`` condenses a measurement window
into the numbers the benchmark harness prints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.obs import MetricsRegistry
from repro.txn.result import TransactionResult, TxnStatus


@dataclass(frozen=True)
class RunReport:
    """Summary of one measurement window."""

    duration: float
    committed: int
    aborted: int
    restarts: int
    throughput: float          # committed txns / second
    latency_mean: float
    latency_p50: float
    latency_p99: float
    per_procedure: Dict[str, int]
    # Server-side latency decomposition (means, seconds): epoch wait +
    # lock queueing vs actual execution (phases 2-5 incl. remote reads).
    sequencing_mean: float = 0.0
    execution_mean: float = 0.0

    def __str__(self) -> str:  # pragma: no cover - presentation
        return (
            f"{self.throughput:,.0f} txn/s over {self.duration:.2f}s "
            f"({self.committed} committed, {self.aborted} aborted, "
            f"{self.restarts} restarts; latency p50={self.latency_p50 * 1e3:.1f}ms "
            f"p99={self.latency_p99 * 1e3:.1f}ms)"
        )


class Metrics:
    """Mutable collector; one per cluster.

    All instruments live in a :class:`MetricsRegistry` (one is created if
    the cluster does not supply a shared one), so ``registry.snapshot()``
    covers transaction outcomes alongside component tallies. The familiar
    ``committed``/``aborted``/``restarts`` ints remain readable as
    properties over the underlying counters.
    """

    def __init__(self, bucket_width: float = 0.05, registry: Optional[MetricsRegistry] = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.throughput = self.registry.series("txn.throughput", bucket_width)
        self.latency = self.registry.histogram("txn.latency")
        self.sequencing = self.registry.histogram("txn.sequencing")
        self.execution = self.registry.histogram("txn.execution")
        self._committed = self.registry.counter("txn.committed")
        self._aborted = self.registry.counter("txn.aborted")
        self._restarts = self.registry.counter("txn.restarts")
        self.per_procedure: Dict[str, int] = {}
        # Client latency samples are only taken inside the measurement
        # window; until begin_window() nothing qualifies (warm-up and
        # cold-start latencies would otherwise pollute the percentiles).
        self.window_start = float("inf")

    @property
    def committed(self) -> int:
        return self._committed.value

    @property
    def aborted(self) -> int:
        return self._aborted.value

    @property
    def restarts(self) -> int:
        return self._restarts.value

    def record_completion(self, procedure: str, result: TransactionResult, now: float) -> None:
        """Record a terminal execution (called on the reply partition)."""
        if result.status is TxnStatus.COMMITTED:
            self._committed.value += 1
            self.throughput.record(now)
            self.per_procedure[procedure] = self.per_procedure.get(procedure, 0) + 1
            granted = result.granted_time
            if granted:
                # TransactionResult.sequencing_latency / execution_latency.
                self.sequencing.add(max(0.0, granted - result.submit_time))
                self.execution.add(max(0.0, result.complete_time - granted))
        elif result.status is TxnStatus.ABORTED:
            self._aborted.value += 1
        else:
            self._restarts.value += 1

    def record_latency(self, latency: float) -> None:
        """Record a client-observed latency (client side, replica 0)."""
        self.latency.add(latency)

    def begin_window(self, now: float) -> None:
        """Mark the start of the measurement window (end of warm-up)."""
        self.window_start = now

    def report(self, now: float) -> RunReport:
        window_start = 0.0 if self.window_start == float("inf") else self.window_start
        duration = max(1e-9, now - window_start)
        rate = self.throughput.rate(window_start, now)
        return RunReport(
            duration=duration,
            committed=self.committed,
            aborted=self.aborted,
            restarts=self.restarts,
            throughput=rate,
            latency_mean=self.latency.mean,
            latency_p50=self.latency.percentile(50),
            latency_p99=self.latency.percentile(99),
            per_procedure=dict(self.per_procedure),
            sequencing_mean=self.sequencing.mean,
            execution_mean=self.execution.mean,
        )
