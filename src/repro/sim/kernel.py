"""Discrete-event simulation kernel.

A small, deterministic event-loop in the style of SimPy: simulated
activities are Python generators ("processes") that yield :class:`Event`
objects; the kernel resumes a process when the event it waits on fires.
Virtual time only advances between events, so a simulation that models
minutes of cluster activity runs in milliseconds of wall time and is exactly
reproducible.

Entries run in ``(time, insertion id)`` order, and an entry is anything
with a ``_run_callbacks()`` method: a triggered event (runs its
callbacks), a pending process (its bootstrap: starts the generator), or a
pending :class:`Hop` (runs its next step). Short activities on the hot
path (a message in flight, a CPU hold) are hops rather than processes: a
hop schedules each step exactly when, and with the delay, a process doing
the same work would, so using one changes no event's time or tie order.

The queue has two tiers. An entry due at the current instant goes on a
FIFO *lane*; every other entry goes on a binary heap. A heap entry due
now was pushed before the clock reached now, so it precedes every lane
entry; serving heap entries due now first, then the lane, then advancing
the clock gives exactly the ``(time, id)`` order of a single heap.
:meth:`Environment.cancel` marks a scheduled event so that it runs
nothing; once cancelled entries are more than half the heap, the queue
is rebuilt without them, which cannot reorder the entries that remain.

Example
-------
>>> env = Environment()
>>> def hello(env):
...     yield env.timeout(1.5)
...     return env.now
>>> proc = env.process(hello(env))
>>> env.run()
>>> proc.value
1.5
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from math import inf
from typing import Any, Callable, Generator, Iterable, List, Optional


class SimulationError(Exception):
    """Base class for errors raised by the simulation kernel."""


class Interrupt(Exception):
    """Raised inside a process that was interrupted by another process.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


# Event lifecycle states.
_PENDING = 0
_TRIGGERED = 1  # scheduled on the queue, callbacks not yet run
_PROCESSED = 2  # callbacks have run
_CANCELLED = 3  # scheduled, then cancelled: never runs


class Event:
    """A condition that processes can wait for.

    An event starts *pending*; calling :meth:`succeed` or :meth:`fail`
    *triggers* it, scheduling its callbacks to run at the current simulation
    time. Each event may trigger only once.
    """

    __slots__ = ("env", "callbacks", "_state", "_value", "_ok")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: List[Callable[["Event"], None]] = []
        self._state = _PENDING
        self._value: Any = None
        self._ok = True

    @property
    def triggered(self) -> bool:
        return self._state >= _TRIGGERED

    @property
    def processed(self) -> bool:
        return self._state == _PROCESSED

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's result value, or the exception if it failed."""
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        if self._state != _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        if self._state != _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env._schedule(self)
        return self

    def _run_callbacks(self) -> None:
        self._state = _PROCESSED
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            callback(self)

    def __repr__(self) -> str:
        state = {_PENDING: "pending", _TRIGGERED: "triggered", _PROCESSED: "processed",
                 _CANCELLED: "cancelled"}
        return f"<{type(self).__name__} {state[self._state]} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed delay of virtual time."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        env._schedule(self, delay=delay)


class Process(Event):
    """Wraps a generator and drives it through the events it yields.

    A process is itself an event that triggers when the generator returns
    (value = return value) or raises (the process fails with the exception,
    which propagates to anything waiting on it). It is first scheduled
    pending, as its own bootstrap: that queue entry starts the generator.

    Processes keep an instance ``__dict__`` (no ``__slots__``), so tools
    may tag them with attributes of their own.
    """

    def __init__(self, env: "Environment", generator: Generator, name: Optional[str] = None):
        super().__init__(env)
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._waiting_on: Optional[Event] = None
        # Ambient trace context (repro.obs): inherited from the process
        # that created this one, so a spawned sub-process stays in the
        # creator's trace. None whenever tracing is off.
        active = env._active
        self.trace_ctx = active.trace_ctx if active is not None else None
        env._push(self)

    @property
    def is_alive(self) -> bool:
        return self._state == _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if not self.is_alive:
            return
        if self._waiting_on is self:
            raise SimulationError("a process cannot interrupt itself")

        def do_interrupt(event: Event) -> None:
            if not self.is_alive:
                return
            # Detach from whatever we were waiting on so the stale resume
            # callback does nothing when that event fires later.
            target = self._waiting_on
            if target is not None and self._resume in target.callbacks:
                target.callbacks.remove(self._resume)
            self._resume(event)

        event = Event(self.env)
        event.callbacks.append(do_interrupt)
        event.fail(Interrupt(cause))

    def _run_callbacks(self) -> None:
        if self._state == _PENDING:
            self._resume(None)  # the bootstrap entry: start the generator
        else:
            Event._run_callbacks(self)

    def _resume(self, event: Optional[Event]) -> None:
        """Send ``event``'s outcome into the generator (None starts it) and
        wait on the event it yields next."""
        env = self.env
        prev_active = env._active
        env._active = self
        self._waiting_on = None
        try:
            try:
                if event is None:
                    target = self._generator.send(None)
                elif event._ok:
                    target = self._generator.send(event._value)
                else:
                    target = self._generator.throw(event._value)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except BaseException as exc:  # noqa: BLE001 - propagate to waiters
                if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                    raise
                self.fail(exc)
                return
            if not isinstance(target, Event):
                error = SimulationError(f"process {self.name!r} yielded non-event {target!r}")
                self._generator.close()
                self.fail(error)
                return
            if target._state == _PROCESSED:
                # Already happened: resume immediately (at the current time).
                bounce = Event(env)
                bounce._ok = target._ok
                bounce._value = target._value
                bounce.callbacks.append(self._resume)
                env._schedule(bounce)
                self._waiting_on = bounce
            else:
                target.callbacks.append(self._resume)
                self._waiting_on = target
        finally:
            env._active = prev_active


class Hop(Event):
    """An event that advances a short activity by callbacks, not a generator.

    A hop does what a small helper process would (a message in flight, a
    CPU hold) without a generator. While pending it puts *itself* on the
    queue for each step, at the moment and with the delay a process doing
    the same work would schedule its bootstrap, timeout or wake-up, so the
    schedule is unchanged; :meth:`_step` runs the next step when that entry
    pops. Once triggered it is an ordinary event: its final queue entry runs
    its callbacks, so processes can yield a hop like any event.

    A step runs with the process that created the hop as ``env._active``,
    so trace-context inheritance and request attribution follow the
    creator.
    """

    __slots__ = ("_proc",)

    def __init__(self, env: "Environment"):
        super().__init__(env)
        self._proc = env._active
        env._push(self)

    def _run_callbacks(self) -> None:
        if self._state != _PENDING:
            Event._run_callbacks(self)
            return
        env = self.env
        prev_active = env._active
        env._active = self._proc
        try:
            self._step()
        finally:
            env._active = prev_active

    def _resume(self, _event: Event) -> None:
        """Callback form of a step: run the next one when ``_event`` fires."""
        self._run_callbacks()

    def _step(self) -> None:
        raise NotImplementedError


class _Condition(Event):
    """Base for AnyOf/AllOf combinators."""

    __slots__ = ("events", "_done")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self.events = list(events)
        self._done = 0
        if not self.events:
            self.succeed({})
            return
        for event in self.events:
            if event.processed:
                self._on_event(event)
            else:
                event.callbacks.append(self._on_event)

    def _on_event(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(event.value)
            return
        self._done += 1
        if self._satisfied():
            self.succeed(self._collect())

    def _satisfied(self) -> bool:
        raise NotImplementedError

    def _collect(self) -> dict:
        return {e: e.value for e in self.events if e.triggered and e.ok}


class AnyOf(_Condition):
    """Triggers when any of the given events has triggered."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._done >= 1


class AllOf(_Condition):
    """Triggers when all of the given events have triggered."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._done >= len(self.events)


class Environment:
    """The simulation environment: virtual clock plus the event queue."""

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        #: Entries due after now: ``(time, insertion id, entry)``.
        self._heap: List[tuple] = []
        #: Entries due at now, in insertion order.
        self._lane: deque = deque()
        self._eid = 0
        #: Cancelled entries still on either tier.
        self._cancelled = 0
        #: The process currently being stepped, or the creator of the hop
        #: being stepped (trace-context inheritance).
        self._active: Optional[Process] = None
        #: Optional repro.obs.profile.KernelProfiler; one None-check per event.
        self.profiler = None

    @property
    def now(self) -> float:
        """Current virtual time, in seconds."""
        return self._now

    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        event._state = _TRIGGERED
        self._push(event, delay)

    def _push(self, entry: Any, delay: float = 0.0) -> None:
        """Queue an entry (a triggered event, or a pending process or hop
        to run its next step) ``delay`` from now. Every entry takes the
        next insertion id, whichever tier it goes on."""
        self._eid += 1
        now = self._now
        at = now + delay
        if at == now:
            self._lane.append(entry)
        else:
            heappush(self._heap, (at, self._eid, entry))

    def cancel(self, event: Event) -> None:
        """Withdraw a scheduled event (typically a :class:`Timeout`) from
        the queue: it runs no callback, and anything still waiting on it
        is never woken. A no-op once the event has been processed.

        Once cancelled entries are more than half the heap, both tiers are
        rebuilt without them; removing entries that run nothing leaves the
        order of the others unchanged.
        """
        if event._state != _TRIGGERED:
            return
        event._state = _CANCELLED
        event.callbacks.clear()
        self._cancelled += 1
        heap = self._heap
        if 2 * self._cancelled > len(heap):
            heap[:] = [item for item in heap if item[2]._state != _CANCELLED]
            heapify(heap)
            lane = self._lane
            if lane:
                live = [entry for entry in lane if entry._state != _CANCELLED]
                lane.clear()
                lane.extend(live)
            self._cancelled = 0

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: Optional[str] = None) -> Process:
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the queue drains, ``until`` is reached, or ``max_events``.

        When ``until`` is given the clock is advanced exactly to ``until``
        even if the queue drains earlier, matching SimPy semantics.
        """
        processed = 0
        heap, lane = self._heap, self._lane
        stop = inf if until is None else until
        if self._now <= stop:
            while True:
                # Heap entries due now, then the lane, then the next instant
                # (the same loop as step()).
                now = self._now
                if heap and heap[0][0] <= now:
                    event = heappop(heap)[2]
                elif lane:
                    event = lane.popleft()
                elif heap and heap[0][0] <= stop:
                    now, _, event = heappop(heap)
                else:
                    break
                if event._state == _CANCELLED:
                    self._cancelled -= 1
                    continue
                self._now = now
                if self.profiler is not None:
                    self.profiler.on_event(now, len(heap) + len(lane))
                event._run_callbacks()
                if max_events is not None:
                    processed += 1
                    if processed >= max_events:
                        return
        if until is not None and self._now < until:
            self._now = until

    def run_until(self, event: Event, limit: Optional[float] = None) -> Any:
        """Run until ``event`` triggers (or ``limit`` virtual time passes).

        Unlike :meth:`run`, this terminates even when perpetual background
        processes (heartbeats, sweepers) keep the queue non-empty. Returns
        the event's value; re-raises its exception if it failed.
        """
        # Wait for *processed* (callbacks ran), not *triggered*: a Timeout
        # is triggered (scheduled) at creation, long before it fires.
        while not event.processed:
            if limit is not None and self._now >= limit:
                raise SimulationError(f"run_until hit time limit {limit}")
            if not self.step():
                raise SimulationError("event queue drained before event triggered")
        if not event.ok:
            raise event.value
        return event.value

    def step(self) -> bool:
        """Process a single event; returns False if the queue is empty."""
        heap, lane = self._heap, self._lane
        while True:
            now = self._now
            if heap and heap[0][0] <= now:
                event = heappop(heap)[2]
            elif lane:
                event = lane.popleft()
            elif heap:
                now, _, event = heappop(heap)
            else:
                return False
            if event._state == _CANCELLED:
                self._cancelled -= 1
                continue
            self._now = now
            if self.profiler is not None:
                self.profiler.on_event(now, len(heap) + len(lane))
            event._run_callbacks()
            return True

    def peek(self) -> Optional[float]:
        """Time of the next scheduled event, or None if the queue is empty."""
        heap, lane = self._heap, self._lane
        while heap and heap[0][2]._state == _CANCELLED:
            heappop(heap)
            self._cancelled -= 1
        while lane and lane[0]._state == _CANCELLED:
            lane.popleft()
            self._cancelled -= 1
        if lane:
            return self._now
        return heap[0][0] if heap else None
