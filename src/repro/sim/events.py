"""Events: the unit of synchronization in the simulation kernel.

An :class:`Event` is a one-shot occurrence at a point in virtual time.
Callbacks registered on an event run when it triggers; a
:class:`~repro.sim.process.Process` that yields an event is resumed with
the event's value. Events trigger through the simulator's event queue
(never synchronously inside ``succeed``), which keeps execution order
independent of callback registration depth and therefore deterministic.
A triggered event's callback round is due at the current instant, so it
joins the kernel's same-instant lane.

A process that only waits for time builds no event: it yields a bare
delay (see :mod:`repro.sim.process`). :class:`Timeout` is the event to
hold when one is needed — for ``all_of``, for ``run_until_triggered``,
or to deliver a value.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional, TYPE_CHECKING

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Simulator

Callback = Callable[["Event"], None]


class Event:
    """A one-shot occurrence in virtual time.

    States: *pending* (created), *triggered* (``succeed``/``fail`` called,
    callbacks scheduled), *processed* (callbacks have run).
    """

    __slots__ = ("sim", "value", "_callbacks", "_triggered", "_ok")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.value: Any = None
        self._callbacks: Optional[List[Callback]] = []
        self._triggered = False
        self._ok: Optional[bool] = None

    @property
    def triggered(self) -> bool:
        """True once ``succeed`` or ``fail`` has been called."""
        return self._triggered

    @property
    def ok(self) -> Optional[bool]:
        """True if succeeded, False if failed, None while pending."""
        return self._ok

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, delivering ``value`` to waiters."""
        if self._triggered:
            raise SimulationError("event triggered twice")
        self._triggered = True
        self._ok = True
        self.value = value
        self.sim._lane.append((self._run_callbacks, (), None))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception, re-raised in waiting processes.

        A failure nobody waits on is never dropped: if no callback is
        registered by the time it is dispatched, the exception propagates
        out of ``Simulator.run`` (SimPy's rule).
        """
        if not isinstance(exception, BaseException):
            raise SimulationError("Event.fail requires an exception instance")
        if self._triggered:
            raise SimulationError("event triggered twice")
        self._triggered = True
        self._ok = False
        self.value = exception
        self.sim._lane.append((self._run_failure_callbacks, (), None))
        return self

    def add_callback(self, callback: Callback) -> None:
        """Register ``callback(event)`` to run when the event triggers.

        If the event already triggered, the callback is scheduled to run
        at the current virtual time (still via the event queue).
        """
        if self._callbacks is None:
            # Already processed: schedule an immediate standalone call.
            self.sim.schedule(0.0, callback, self)
        else:
            self._callbacks.append(callback)

    def _run_callbacks(self) -> None:
        callbacks, self._callbacks = self._callbacks, None
        for callback in callbacks or ():
            callback(self)

    def _run_failure_callbacks(self) -> None:
        callbacks, self._callbacks = self._callbacks, None
        if not callbacks:
            raise self.value
        for callback in callbacks:
            callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "pending" if not self._triggered else ("ok" if self._ok else "failed")
        return f"<{type(self).__name__} {state} at t={self.sim.now:.6f}>"


class Timeout(Event):
    """An event that triggers ``delay`` time units after creation."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        super().__init__(sim)
        sim.schedule(delay, self._expire, value)

    def _expire(self, value: Any) -> None:
        self.succeed(value)


class AllOf(Event):
    """Triggers when every child event has triggered.

    The value is the list of child values in the order the children were
    given. If any child fails, ``AllOf`` fails with that child's exception
    (the first failure in trigger order wins).
    """

    __slots__ = ("_pending", "_children")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self._children = list(events)
        self._pending = len(self._children)
        if self._pending == 0:
            self.succeed([])
            return
        for child in self._children:
            child.add_callback(self._child_done)

    def _child_done(self, child: Event) -> None:
        if self._triggered:
            return
        if not child.ok:
            self.fail(child.value)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed([c.value for c in self._children])


class AnyOf(Event):
    """Triggers when the first child event triggers; value is ``(index, value)``."""

    __slots__ = ("_children",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self._children = list(events)
        if not self._children:
            raise SimulationError("AnyOf requires at least one event")
        for index, child in enumerate(self._children):
            child.add_callback(self._make_callback(index))

    def _make_callback(self, index: int) -> Callback:
        def on_child(child: Event) -> None:
            if self._triggered:
                return
            if not child.ok:
                self.fail(child.value)
            else:
                self.succeed((index, child.value))

        return on_child
