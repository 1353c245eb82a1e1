"""STAR's deterministic phase-length controller.

The controller alternates two phases forever:

* **partitioned** — multipartition transactions accumulate in the
  master's backlog (locks held at their participants); single-partition
  traffic runs undisturbed. Length: a whole number of epochs chosen
  from the multipartition fraction ``f`` observed so far::

      epochs = clamp(round(PHASE_GAIN * (1 - f) / max(f, 1/32)),
                     MIN_PARTITIONED_EPOCHS, MAX_PARTITIONED_EPOCHS)

  — long partitioned stretches when multipartition work is rare, the
  minimum when it dominates.
* **single-master** — the gate opens and the master drains the backlog.
  The phase lasts at least one epoch and then ends as soon as the
  master goes idle, so a steady multipartition stream keeps the system
  in (throughput-equivalent to) single-master mode while a bursty one
  returns quickly to partitioned execution.

Each switch costs ``SWITCH_LATENCY`` (the fence/handover barrier).
Every decision input — epoch batch contents, backlog state — is itself
deterministic, so phase boundaries are reproducible bit for bit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.obs import CAT_NODE, NULL_RECORDER, SpanKind, TraceRecorder

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.config import ClusterConfig
    from repro.sim.kernel import Simulator
    from repro.star.master import StarMaster

PARTITIONED = "partitioned"
SINGLE_MASTER = "single-master"

# Controller constants (one value in use everywhere, so not config
# knobs). The cap trades multipartition parking time (a parked txn holds
# its locks until the next single-master phase, throttling contended hot
# sets) against switch overhead; 2 keeps the contended-workload penalty
# small while preserving the adaptive range.
MIN_PARTITIONED_EPOCHS = 1
MAX_PARTITIONED_EPOCHS = 2
PHASE_GAIN = 0.5
# One-way cost of a phase switch (the fence/handover barrier), seconds.
SWITCH_LATENCY = 0.001


class PhaseController:
    """Drives the partitioned/single-master alternation on one cluster."""

    def __init__(
        self,
        sim: "Simulator",
        config: "ClusterConfig",
        master: "StarMaster",
        tracer: TraceRecorder = NULL_RECORDER,
    ):
        self.sim = sim
        self.config = config
        self.master = master
        self.tracer = tracer
        self.phase = PARTITIONED
        self.phase_switches = 0
        self.txns_observed = 0
        self.multipartition_observed = 0
        self._started = False

    # -- observation (installed as every input sequencer's batch_observer) --

    def observe_batch(self, epoch: int, sequenced) -> None:
        """Count one dispatched batch, reading the routes its
        sequencer already resolved."""
        self.txns_observed += len(sequenced)
        for stxn in sequenced:
            if len(stxn.route.participants) > 1:
                self.multipartition_observed += 1

    @property
    def multipartition_fraction(self) -> float:
        if self.txns_observed == 0:
            return 0.0
        return self.multipartition_observed / self.txns_observed

    def partitioned_epochs(self) -> int:
        """Partitioned-phase length for the next cycle, in epochs."""
        f = self.multipartition_fraction
        raw = PHASE_GAIN * (1.0 - f) / max(f, 1.0 / 32.0)
        return max(MIN_PARTITIONED_EPOCHS, min(MAX_PARTITIONED_EPOCHS, round(raw)))

    # -- the control loop --------------------------------------------------

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self.sim.process(self._loop())

    def _loop(self):
        epoch = self.config.epoch_duration
        while True:
            start = self.sim.now
            self.phase = PARTITIONED
            yield self.partitioned_epochs() * epoch
            self._end_phase(start, PARTITIONED)
            yield SWITCH_LATENCY

            start = self.sim.now
            self.phase = SINGLE_MASTER
            self.master.open_gate()
            # Minimum drain window, then run until the master goes idle.
            yield epoch
            while self.master.busy:
                yield self.master.drained_event()
            self.master.close_gate()
            self._end_phase(start, SINGLE_MASTER)
            yield SWITCH_LATENCY

    def _end_phase(self, start: float, name: str) -> None:
        self.phase_switches += 1
        if self.tracer.enabled:
            self.tracer.record(
                SpanKind.PHASE, start, self.sim.now,
                cat=CAT_NODE,
                replica=self.master.node.node_id.replica,
                partition=self.master.node.node_id.partition,
                detail=name,
            )
