"""The discrete-event simulation loop.

:class:`Simulator` dispatches ``fn(*args)`` entries in ``(time,
sequence)`` order: by virtual time, and equal-time entries in the order
they were scheduled (FIFO). That makes runs bit-for-bit reproducible for
a fixed seed — a property the replica-consistency experiments depend on.

The order is kept in two queues:

- a binary heap of ``(time, sequence, fn, args, owner)`` entries for
  work due *later* than ``now``;
- the same-instant lane, a FIFO ``deque`` of ``(fn, args, owner)``
  entries for work due *at* ``now`` — zero delays, delays too small to
  move the clock, past ``schedule_at`` times, triggered events, process
  starts. More than half of a typical run's dispatches are due now, and
  the lane gives each of them an append and a pop instead of a heap
  sift.

Why two queues keep ``(time, sequence)`` order exactly: an entry can
only be pushed into the heap while its time lies in the future, so
every heap entry due at ``now`` is older (has a smaller sequence number)
than everything pushed once the clock reached ``now``, which all went to
the lane, in push order. The loop advances the clock only when the lane
is empty; when it does, every heap entry due at the new instant moves
into the (empty) lane, in sequence order, before the first of them is
dispatched. Lane entries therefore need no sequence number of their own.

Entries may carry an *owner* tag (any hashable). Owners can be
suspended — their due entries are parked instead of dispatched — and
later resumed, which replays the parked entries in their original order.
This is the kernel-level hook the fault injector uses to crash and
restart a node's timer-driven processes without losing determinism.

The dispatch loop is the hottest code in the repository: every message
hop, CPU charge, and timer in a run passes through it. It therefore
binds both queues and their pop methods to locals and skips the park
branch entirely while no owner is suspended (the common case —
fault-free runs never pay for crash support).
"""

from __future__ import annotations

import gc
import heapq
from collections import deque
from contextlib import contextmanager, nullcontext
from math import inf
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Generator,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.errors import SimulationError
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.process import Process

HeapEntry = Tuple[float, int, Callable[..., None], tuple, Optional[Hashable]]
LaneEntry = Tuple[Callable[..., None], tuple, Optional[Hashable]]
# Why Simulator._dispatch stopped.
_TRIGGERED, _HORIZON, _DRAINED = "triggered", "horizon", "drained"


def _horizon(until: Optional[float]) -> float:
    """The time a run may not pass; a NaN one is refused, since it
    compares false with every time and would bound nothing."""
    if until is None:
        return inf
    if until != until:
        raise SimulationError("cannot run until time NaN")
    return until


class Simulator:
    """A deterministic discrete-event simulator (virtual time in seconds)."""

    def __init__(self, sanitize: bool = False) -> None:
        self.now: float = 0.0
        # Entries due later than ``now``; sequence numbers order ties.
        self._heap: List[HeapEntry] = []
        self._seq = 0
        # Entries due at ``now``, in scheduling order (see the module
        # docstring for why the two queues keep (time, seq) order).
        self._lane: Deque[LaneEntry] = deque()
        self._running = False
        self.events_executed = 0
        # Determinism sanitizer: armed around every run()/
        # run_until_triggered() when requested (ClusterConfig.sanitize).
        # None in the common case, so the hot loop pays one attribute
        # check per run() call, not per event.
        self.sanitizer = None
        if sanitize:
            from repro.analysis.sanitizer import DeterminismSanitizer

            self.sanitizer = DeterminismSanitizer()
        # Tally of schedule_at calls whose target time was already in the
        # past and got clamped to "now" — visible in metric snapshots so
        # model bugs that schedule backwards in time do not pass silently.
        self.schedule_at_clamped = 0
        # Crash/restart support: owners whose entries are parked on pop.
        self._suspended: Set[Hashable] = set()
        self._parked: Dict[Hashable, List[Tuple[Callable[..., None], tuple]]] = {}

    # -- scheduling ----------------------------------------------------

    def _push(
        self, delay: float, fn: Callable[..., None], args: tuple, owner: Optional[Hashable]
    ) -> None:
        if not delay >= 0:
            raise SimulationError(f"delay must be >= 0, got {delay}")
        now = self.now
        when = now + delay
        if when == now:
            # Zero, or too small to move the clock: due now.
            self._lane.append((fn, args, owner))
        else:
            self._seq = seq = self._seq + 1
            heapq.heappush(self._heap, (when, seq, fn, args, owner))

    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` units of virtual time."""
        # Inlined _push (hot path).
        if not delay >= 0:
            raise SimulationError(f"delay must be >= 0, got {delay}")
        now = self.now
        when = now + delay
        if when == now:
            self._lane.append((fn, args, None))
        else:
            self._seq = seq = self._seq + 1
            heapq.heappush(self._heap, (when, seq, fn, args, None))

    def schedule_owned(
        self, owner: Optional[Hashable], delay: float, fn: Callable[..., None], *args: Any
    ) -> None:
        """Like :meth:`schedule`, tagging the entry with ``owner``.

        Owned entries are subject to :meth:`suspend_owner` /
        :meth:`resume_owner` (crash/restart of a node's processes).
        """
        self._push(delay, fn, args, owner)

    def schedule_many(
        self,
        owner: Optional[Hashable],
        delay: float,
        calls: Iterable[Tuple[Callable[..., None], tuple]],
    ) -> None:
        """Bulk-insert ``(fn, args)`` pairs at one delay, in order.

        Equivalent to calling :meth:`schedule_owned` once per pair —
        FIFO order among the batch and relative to everything else is
        preserved — but hoists the time arithmetic and method lookups
        out of the loop.
        """
        if not delay >= 0:
            raise SimulationError(f"delay must be >= 0, got {delay}")
        when = self.now + delay
        if when == self.now:
            self._lane.extend([(fn, args, owner) for fn, args in calls])
            return
        seq = self._seq
        heap = self._heap
        push = heapq.heappush
        for fn, args in calls:
            seq += 1
            push(heap, (when, seq, fn, args, owner))
        self._seq = seq

    def schedule_at(self, when: float, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` at absolute virtual time ``when``.

        Past times are clamped to "now" (and tallied in
        ``schedule_at_clamped`` — a nonzero count usually means a model
        bug computed a timestamp before the current virtual time). A NaN
        ``when`` raises: it compares false with every heap entry.
        """
        delay = when - self.now
        if not delay >= 0.0:
            if when != when:
                raise SimulationError("cannot schedule at time NaN")
            self.schedule_at_clamped += 1
            delay = 0.0
        self._push(delay, fn, args, None)

    # -- crash/restart hooks --------------------------------------------

    def suspend_owner(self, owner: Hashable) -> None:
        """Freeze ``owner``: its due entries are parked, not dispatched.

        Models a crashed (or stalled) component whose timers must not
        fire while it is down. Parked entries keep their original order.
        """
        if owner is None:
            raise SimulationError("cannot suspend the anonymous owner")
        self._suspended.add(owner)

    def resume_owner(self, owner: Hashable) -> None:
        """Unfreeze ``owner`` and replay its parked entries now, in order."""
        self._suspended.discard(owner)
        parked = self._parked.pop(owner, None)
        if parked:
            self.schedule_many(owner, 0.0, parked)

    def discard_parked(self, owner: Hashable) -> int:
        """Drop ``owner``'s parked entries (a restart that loses volatile
        timers rather than replaying them). Returns the number dropped."""
        return len(self._parked.pop(owner, []))

    def suspended(self, owner: Hashable) -> bool:
        return owner in self._suspended

    # -- event constructors ---------------------------------------------

    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that triggers after ``delay``."""
        return Timeout(self, delay, value)

    def all_of(self, events) -> AllOf:
        """An event that triggers when all ``events`` have triggered."""
        return AllOf(self, events)

    def any_of(self, events) -> AnyOf:
        """An event that triggers when the first of ``events`` triggers."""
        return AnyOf(self, events)

    def process(self, generator: Generator) -> Process:
        """Start a generator as a simulation process."""
        return Process(self, generator)

    # -- execution -------------------------------------------------------

    @contextmanager
    def _dispatching(self) -> Iterator[None]:
        """Everything the dispatch loop runs under: the reentrancy
        guard, the determinism sanitizer when armed, and the cyclic
        collector off.

        One heap has one loop over it at a time: a handler that calls
        ``run`` or ``run_until_triggered`` would dispatch unrelated
        entries from inside itself, so it is refused.

        The loop and its handlers allocate heavily but leave no
        unreachable cycles (tests/test_gc_quiet.py holds that), so an
        automatic collection in here walks the whole live cluster to
        reclaim nothing. The collector's previous state is restored on
        every way out; a caller's own ``gc.disable()`` is left alone.
        """
        if self._running:
            raise SimulationError(
                "Simulator.run / run_until_triggered are not reentrant: "
                "called from inside an event handler"
            )
        self._running = True
        collecting = gc.isenabled()
        gc.disable()
        try:
            with self.sanitizer or nullcontext():
                yield
        finally:
            self._running = False
            if collecting:
                gc.enable()

    def _dispatch(
        self, horizon: float, max_events: Optional[int], event: Optional[Event] = None
    ) -> str:
        """The one dispatch loop under :meth:`run` and
        :meth:`run_until_triggered`.

        Dispatches in ``(time, seq)`` order, parking work whose owner is
        suspended, until ``event`` (when given) has triggered and run its
        callbacks, the next entry is due after ``horizon``, or the queue
        drains; returns which of the three stopped it. Raises after
        ``max_events`` dispatches (a runaway guard).
        """
        budget = inf if max_events is None else max_events
        heap = self._heap
        pop = heapq.heappop
        lane = self._lane
        popleft = lane.popleft
        append = lane.append
        suspended = self._suspended
        executed = 0
        try:
            with self._dispatching():
                # A horizon behind the clock dispatches nothing, not even
                # what is due now; inside it the clock never passes it.
                if self.now > horizon and not (
                    event is not None and event.triggered and event._callbacks is None
                ):
                    return _HORIZON if lane or heap else _DRAINED
                while event is None or not event.triggered or event._callbacks is not None:
                    if lane:
                        fn, args, owner = popleft()
                    elif heap:
                        entry = heap[0]
                        when = entry[0]
                        if when > horizon:
                            return _HORIZON
                        pop(heap)
                        self.now = when
                        # The rest of this instant's heap entries are older
                        # than anything its handlers will push: they queue
                        # first.
                        while heap and heap[0][0] == when:
                            _, _, fn, args, owner = pop(heap)
                            append((fn, args, owner))
                        _, _, fn, args, owner = entry
                    else:
                        return _DRAINED
                    if suspended and owner is not None and owner in suspended:
                        self._parked.setdefault(owner, []).append((fn, args))
                        continue
                    fn(*args)
                    executed += 1
                    if executed >= budget:
                        raise SimulationError(
                            f"simulation exceeded max_events={max_events}; "
                            "likely a livelock in the model"
                        )
                return _TRIGGERED
        finally:
            self.events_executed += executed

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Drain the event queue.

        Stops when the queue is empty, when virtual time would pass
        ``until``, or after ``max_events`` dispatches (a runaway guard).
        Returns the final virtual time: ``until`` when one is given,
        unless the clock is already past it — it never moves backwards.

        Automatic garbage collection is suspended for the duration of
        the call and put back as it was on return or on any exception
        (see ``docs/performance.md``, "Garbage collection"). It runs at
        CPython's usual cadence between calls; a ``run`` that never
        returns never collects, and forcing a collection between runs
        is the caller's business.
        """
        self._dispatch(_horizon(until), max_events)
        # Horizon reached or queue drained: the clock moves up to
        # ``until``, never back.
        if until is not None and until > self.now:
            self.now = until
        return self.now

    def run_until_triggered(
        self,
        event: Event,
        limit: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> Any:
        """Run until ``event`` triggers; return its value (raise if it failed).

        ``max_events`` bounds dispatches exactly like :meth:`run` — a
        runaway guard for drains that never converge. Automatic garbage
        collection is suspended and restored exactly as in :meth:`run`.
        """
        stop = self._dispatch(_horizon(limit), max_events, event)
        if stop == _HORIZON:
            raise SimulationError(f"event not triggered before t={limit}")
        if stop == _DRAINED:
            raise SimulationError("event queue drained before event triggered")
        if event.ok:
            return event.value
        raise event.value

    @property
    def pending_events(self) -> int:
        """Number of entries currently queued, due now or later."""
        return len(self._heap) + len(self._lane)

    def register_metrics(self, registry, prefix: str = "sim") -> None:
        """Expose kernel tallies as gauges in ``registry``."""
        registry.gauge(f"{prefix}.events_executed", lambda: self.events_executed)
        registry.gauge(f"{prefix}.pending_events", lambda: self.pending_events)
        registry.gauge(f"{prefix}.now", lambda: self.now)
        registry.gauge(f"{prefix}.schedule_at_clamped", lambda: self.schedule_at_clamped)
