"""Generator-based simulation processes.

A process is a Python generator that yields :class:`~repro.sim.events.Event`
objects, bare delays or :class:`~repro.sim.resources.Resource` pools; the
kernel resumes the generator with the event's value when it triggers,
with ``None`` once the delay has passed, or with the pool once it grants
a slot. A process is itself an event that triggers with the generator's
return value, so processes can wait on each other.

Example::

    def worker(sim, pool):
        yield pool                        # wait for a slot
        yield 0.001                       # do 1 ms of work
        pool.release()
        return "done"

    proc = sim.process(worker(sim, pool))

A bare delay (a non-negative ``float`` or ``int``; not a ``bool``) costs
the same two dispatches as waiting on ``sim.timeout(delay)`` — the
expiry, then the resume queued behind everything already due at that
instant — so the two are interchangeable dispatch for dispatch. It builds no
event: the expiry entry's handler is the kernel lane's own ``append``,
which queues the resume. A negative or NaN delay is thrown into the
generator at the ``yield`` as a :class:`~repro.errors.SimulationError`.
Yielding a pool builds no event either (see :mod:`repro.sim.resources`).
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Generator, TYPE_CHECKING

from repro.errors import SimulationError
from repro.sim.events import Event
from repro.sim.resources import Resource

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Simulator


class Process(Event):
    """Wraps a generator; the process event triggers on generator return."""

    __slots__ = ("_generator",)

    def __init__(self, sim: "Simulator", generator: Generator):
        if not hasattr(generator, "send"):
            raise SimulationError("Process requires a generator (did you call the function?)")
        # Inlined Event.__init__ + schedule (hot path).
        self.sim = sim
        self.value = None
        self._callbacks = []
        self._triggered = False
        self._ok = None
        self._generator = generator
        sim._lane.append((self._step, (None, True), None))

    def _step(self, value: Any, ok: bool) -> None:
        try:
            if ok:
                target = self._generator.send(value)
            else:
                target = self._generator.throw(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:  # logic error inside the process
            self.fail(exc)
            return
        if target.__class__ is not float:
            if target.__class__ is Resource:
                # A free slot is taken now and the resume queued on the
                # lane; a busy pool queues it for Resource.release.
                if target._in_use < target.capacity:
                    target._account()
                    target._in_use += 1
                    target.total_grants += 1
                    self.sim._lane.append((self._step, (target, True), None))
                else:
                    target._waiters.append(self._step)
                return
            if isinstance(target, Event):
                # Inlined target.add_callback(self._resume) — same semantics.
                callbacks = target._callbacks
                if callbacks is None:
                    self.sim._lane.append((self._resume, (target,), None))
                else:
                    callbacks.append(self._resume)
                return
            if target.__class__ is bool or not isinstance(target, (int, float)):
                self._generator.close()
                self.fail(SimulationError(f"process yielded non-event: {target!r}"))
                return
        # A bare delay: the expiry appends the resume to the lane.
        if not target >= 0:
            self._step(SimulationError(f"delay must be >= 0, got {target}"), False)
            return
        sim = self.sim
        now = sim.now
        when = now + target
        lane = sim._lane
        resume = (self._step, (None, True), None)
        if when == now:
            lane.append((lane.append, (resume,), None))
        else:
            sim._seq = seq = sim._seq + 1
            heappush(sim._heap, (when, seq, lane.append, (resume,), None))

    def _resume(self, event: Event) -> None:
        # _ok is strictly True/False once triggered — no bool() needed.
        self._step(event.value, event._ok)
