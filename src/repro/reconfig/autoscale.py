"""Autoscaling policy: admission signals in, control-plane actions out.

The autoscaler closes the loop between the admission controllers'
saturation signals (queue depth, shed rate) and the
:class:`~repro.reconfig.admin.ClusterAdmin` facade. It samples on a
fixed sim-time interval, so every decision is a pure function of
(policy, sampled state, virtual time) — the same seed produces the
same scaling timeline and the same trace digest.

Scale **up** splits the hottest origin onto a dormant spare (growing
the active-origin set at the split's flip epoch); scale **down**
retires the highest-numbered origin once the cluster has been idle for
enough consecutive samples. A cooldown keeps consecutive actions from
racing each other's flip epochs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.reconfig.admin import ClusterAdmin


# Scale up when any origin sheds or drops this many requests in one
# sampling interval (or its queue reaches the policy's depth).
SCALE_UP_SHED_RATE = 8
# Scale down after this many consecutive all-idle samples.
SCALE_DOWN_IDLE_SAMPLES = 4
# A scale-up moves this fraction of the hottest origin's range.
SPLIT_FRACTION = 0.5


@dataclass(frozen=True)
class AutoscalePolicy:
    """Thresholds driving :class:`Autoscaler` decisions."""

    interval: float = 0.05            # seconds between samples
    scale_up_queue_depth: int = 16    # any origin's admission queue depth
    cooldown: float = 0.2             # seconds between actions
    min_origins: int = 1

    def validate(self) -> None:
        if self.interval <= 0:
            raise ConfigError("autoscale interval must be positive")
        if self.cooldown < 0:
            raise ConfigError("autoscale cooldown must be >= 0")
        if self.min_origins < 1:
            raise ConfigError("min_origins must be >= 1")


class Autoscaler:
    """Samples saturation signals and drives the admin facade."""

    def __init__(self, admin: "ClusterAdmin", policy: Optional[AutoscalePolicy] = None):
        self.admin = admin
        self.policy = policy or AutoscalePolicy()
        self.policy.validate()
        self.cluster = admin.cluster
        self._started = False
        self._stopped = False
        self._last_action = -float("inf")
        self._idle_samples = 0
        self._last_overflow: Dict[int, int] = {}
        # (sim time, action, partition, reason) per decision taken.
        self.decisions: List[Tuple[float, str, int, str]] = []

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self.cluster.sim.schedule(self.policy.interval, self._sample)

    def stop(self) -> None:
        """Stop sampling (already-armed actions still land)."""
        self._stopped = True

    # -- sampling ---------------------------------------------------------

    def _signals(self, origins) -> Dict[int, Tuple[int, int]]:
        """Per-origin (queue depth, overflow delta since last sample)."""
        signals = {}
        for origin in origins:
            admission = self.cluster.node(0, origin).sequencer.admission
            if admission is None:
                signals[origin] = (0, 0)
                continue
            overflow = admission.shed + admission.dropped + admission.backpressured
            delta = overflow - self._last_overflow.get(origin, 0)
            self._last_overflow[origin] = overflow
            signals[origin] = (admission.queue_depth, delta)
        return signals

    def _sample(self) -> None:
        if self._stopped:
            return
        sim = self.cluster.sim
        policy = self.policy
        origins = self.admin.current_origins()
        signals = self._signals(origins)
        if sim.now - self._last_action >= policy.cooldown:
            hot = [
                origin
                for origin, (depth, delta) in signals.items()
                if depth >= policy.scale_up_queue_depth
                or delta >= SCALE_UP_SHED_RATE
            ]
            idle = all(
                depth == 0 and delta == 0 for depth, delta in signals.values()
            )
            if hot:
                self._idle_samples = 0
                self._scale_up(signals, hot)
            elif idle:
                self._idle_samples += 1
                if self._idle_samples >= SCALE_DOWN_IDLE_SAMPLES:
                    self._scale_down(origins)
            else:
                self._idle_samples = 0
        sim.schedule(policy.interval, self._sample)

    # -- actions ----------------------------------------------------------

    def _scale_up(self, signals, hot) -> None:
        if not self.admin.spare_partitions():
            return
        # Hottest origin: deepest queue, then largest shed delta, then
        # lowest index — a total order, so the choice is deterministic.
        hottest = max(hot, key=lambda o: (signals[o][0], signals[o][1], -o))
        depth, delta = signals[hottest]
        reason = f"autoscale-up: p{hottest} depth={depth} shed={delta}"
        self.admin.split(hottest, SPLIT_FRACTION, reason=reason)
        self._last_action = self.cluster.sim.now
        self.decisions.append((self.cluster.sim.now, "split", hottest, reason))

    def _scale_down(self, origins) -> None:
        policy = self.policy
        if len(origins) <= policy.min_origins:
            return
        victim = max(origins)
        reason = f"autoscale-down: idle for {self._idle_samples} samples"
        self.admin.remove_node(victim, reason=reason)
        self._last_action = self.cluster.sim.now
        self._idle_samples = 0
        self.decisions.append((self.cluster.sim.now, "remove", victim, reason))
