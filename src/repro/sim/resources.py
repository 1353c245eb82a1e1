"""Counted resources: worker pools, disk queues, CPU slots.

A :class:`Resource` has integer capacity. A process waits for a slot by
yielding the resource itself (``yield pool``) and resumes, with the pool
as the value, once a slot is granted (FIFO order). The holder calls
``release()`` when done. A grant is one dispatch on the kernel's
same-instant lane and builds no event: a free slot is taken at the
``yield``, a busy pool queues the waiting process, and ``release()``
passes the slot straight to the longest waiter. This mirrors SimPy's
``Resource`` but with the minimum surface this project needs and
strictly deterministic ordering.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, TYPE_CHECKING

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Simulator


class Resource:
    """A counted, FIFO-granted resource."""

    def __init__(self, sim: "Simulator", capacity: int, name: str = "resource"):
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._in_use = 0
        # Waiting processes' resume methods (``Process._step``), oldest first.
        self._waiters: Deque[Callable] = deque()
        # Cumulative stats for utilization reporting.
        self.total_grants = 0
        self._busy_time = 0.0
        self._last_change = 0.0

    @property
    def in_use(self) -> int:
        """Slots currently held."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Processes waiting for a slot."""
        return len(self._waiters)

    def release(self) -> None:
        """Return a slot; the longest-waiting process (if any) is granted it."""
        if self._in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        self._account()
        if self._waiters:
            # The slot passes to the waiter: still in use, one more grant.
            self.total_grants += 1
            self.sim._lane.append((self._waiters.popleft(), (self, True), None))
        else:
            self._in_use -= 1

    def utilization(self, elapsed: float) -> float:
        """Average fraction of capacity busy over ``elapsed`` time."""
        if elapsed <= 0:
            return 0.0
        self._account()
        return self._busy_time / (elapsed * self.capacity)

    def _account(self) -> None:
        now = self.sim.now
        self._busy_time += self._in_use * (now - self._last_change)
        self._last_change = now
