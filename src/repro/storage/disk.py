"""Simulated disk tier for cold records (paper Section 4).

The paper's key point: a deterministic system must not let a disk stall
be discovered *after* sequencing, or every later conflicting transaction
stalls too. Calvin's sequencer therefore predicts which transactions
touch cold data, sends prefetch requests immediately, and defers the
transaction by the expected fetch time. This module provides the device
model (bounded parallelism + seek-latency distribution).
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.errors import StorageError
from repro.obs import CAT_DEVICE, NULL_RECORDER, SpanKind, TraceRecorder
from repro.partition.partitioner import Key
from repro.sim.events import Event
from repro.sim.resources import Resource

if TYPE_CHECKING:  # pragma: no cover - typing only
    import random

    from repro.config import CostModel
    from repro.sim.kernel import Simulator


class DiskFaultMode:
    """An active degradation of the device (installed by the fault injector).

    ``latency_multiplier``/``extra_latency`` model a latency spike (a
    contended or failing spindle); ``torn_io_prob`` is the chance that an
    access comes back corrupt (a torn read/write detected by checksum)
    and must be retried, each retry paying a fresh access latency.
    """

    def __init__(
        self,
        latency_multiplier: float = 1.0,
        extra_latency: float = 0.0,
        torn_io_prob: float = 0.0,
        max_retries: int = 8,
    ):
        if latency_multiplier <= 0:
            raise StorageError("latency_multiplier must be > 0")
        if extra_latency < 0:
            raise StorageError("extra_latency must be >= 0")
        if not 0.0 <= torn_io_prob < 1.0:
            raise StorageError("torn_io_prob must be in [0, 1)")
        self.latency_multiplier = latency_multiplier
        self.extra_latency = extra_latency
        self.torn_io_prob = torn_io_prob
        self.max_retries = max_retries


class SimulatedDisk:
    """A disk device: limited parallelism, randomized access latency."""

    def __init__(
        self,
        sim: "Simulator",
        rng: "random.Random",
        costs: "CostModel",
        tracer: TraceRecorder = NULL_RECORDER,
        replica: Optional[int] = None,
        partition: Optional[int] = None,
    ):
        self.sim = sim
        self._rng = rng
        self._costs = costs
        self.tracer = tracer
        self.replica = replica
        self.partition = partition
        self._slots = Resource(sim, costs.disk_parallelism, name="disk")
        self.fetches = 0
        self.total_latency = 0.0
        self.fault_mode: Optional[DiskFaultMode] = None
        self.torn_accesses = 0

    def set_fault_mode(self, mode: Optional[DiskFaultMode]) -> None:
        """Install (or, with ``None``, clear) a fault mode on the device."""
        self.fault_mode = mode

    def access_latency(self) -> float:
        """Draw one access latency from the device's distribution."""
        jitter = self._costs.disk_latency_jitter
        latency = self._costs.disk_latency_mean
        if jitter > 0:
            latency += self._rng.uniform(-jitter, jitter)
        fault = self.fault_mode
        if fault is not None:
            latency = latency * fault.latency_multiplier + fault.extra_latency
        return max(1e-4, latency)

    def expected_latency(self) -> float:
        """Mean access latency (what a perfect estimator would predict)."""
        return self._costs.disk_latency_mean

    def fetch(self, key: Key) -> Event:
        """An event that triggers when ``key`` has been read off the device."""
        self.fetches += 1
        done = Event(self.sim)
        self.sim.process(self._fetch_process(done))
        return done

    def _fetch_process(self, done: Event):
        queued_at = self.sim.now
        yield self._slots.request()
        attempts = 0
        while True:
            latency = self.access_latency()
            self.total_latency += latency
            yield latency
            fault = self.fault_mode
            if (
                fault is not None
                and fault.torn_io_prob > 0
                and attempts < fault.max_retries
                and self._rng.random() < fault.torn_io_prob
            ):
                # Torn I/O: checksum mismatch, re-read the sector.
                self.torn_accesses += 1
                attempts += 1
                continue
            break
        self._slots.release()
        if self.tracer.enabled:
            # Device-level span (queue wait + access, incl. torn retries):
            # distinct from the txn-attributed cold-stall span, which only
            # appears when a fetch lands on the execution critical path.
            self.tracer.record(
                SpanKind.DISK, queued_at, self.sim.now,
                cat=CAT_DEVICE, replica=self.replica, partition=self.partition,
                detail="fetch",
            )
        done.succeed()

    @property
    def queue_length(self) -> int:
        return self._slots.queue_length

    def register_metrics(self, registry, prefix: str) -> None:
        """Expose device tallies as gauges in ``registry``."""
        registry.gauge(f"{prefix}.fetches", lambda: self.fetches)
        registry.gauge(f"{prefix}.total_latency", lambda: self.total_latency)
        registry.gauge(f"{prefix}.torn_accesses", lambda: self.torn_accesses)
