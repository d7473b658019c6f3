"""Event types for the discrete-event kernel.

An :class:`Event` is a one-shot occurrence with an attached value (or
exception).  Events move through three states:

``pending``
    Created but not yet scheduled; nobody knows when (or if) it happens.
``triggered``
    ``succeed()``/``fail()`` was called; the event sits in the simulator's
    heap with a concrete fire time.
``processed``
    The event loop popped it and ran its callbacks (resuming any processes
    waiting on it).

Processes (:class:`Process`) are themselves events: they trigger when their
generator returns, carrying the generator's return value — so one process can
``yield`` another to join on it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable, Optional

from repro.simkit.errors import Interrupt, SimkitError

if TYPE_CHECKING:  # pragma: no cover
    from repro.simkit.core import Simulator

# Scheduling priorities: lower sorts earlier among simultaneous events.
URGENT = 0
NORMAL = 1
LOW = 2


class Event:
    """A one-shot simulation event with callbacks.

    Parameters
    ----------
    sim:
        The owning :class:`Simulator`.
    name:
        Optional label used in ``repr`` and traces.
    """

    __slots__ = ("sim", "_name", "callbacks", "_value", "_exception", "_state", "defused")

    PENDING = 0
    TRIGGERED = 1
    PROCESSED = 2

    def __init__(self, sim: "Simulator", name: Optional[str] = None):
        self.sim = sim
        self._name = name
        self.callbacks: list[Callable[["Event"], None]] = []
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._state = Event.PENDING
        #: Set by a handler to acknowledge a failure so the kernel does not
        #: escalate an unhandled failed event to the top level.
        self.defused = False

    # -- state inspection -------------------------------------------------
    @property
    def name(self) -> Optional[str]:
        """Label used in ``repr`` and traces.

        A property (rather than a plain slot) so hot subclasses such as
        :class:`Timeout` can render their label *lazily* — formatting an
        f-string per event is pure overhead when nobody reads it.
        """
        return self._name

    @name.setter
    def name(self, value: Optional[str]) -> None:
        self._name = value

    @property
    def triggered(self) -> bool:
        """True once ``succeed``/``fail`` has been called."""
        return self._state >= Event.TRIGGERED

    @property
    def processed(self) -> bool:
        """True once the event loop has run this event's callbacks."""
        return self._state == Event.PROCESSED

    @property
    def ok(self) -> bool:
        """True if the event triggered successfully (no exception)."""
        return self.triggered and self._exception is None

    @property
    def failed(self) -> bool:
        """True if the event triggered with an exception."""
        return self.triggered and self._exception is not None

    @property
    def value(self) -> Any:
        """The event's value; raises if the event failed."""
        if self._exception is not None:
            raise self._exception
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        """The failure exception, or ``None``."""
        return self._exception

    # -- triggering --------------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully after ``delay`` sim-seconds."""
        if self._state != Event.PENDING:
            raise SimkitError(f"{self!r} has already been triggered")
        self._value = value
        self._state = Event.TRIGGERED
        self.sim._schedule(self, delay=delay, priority=priority)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0, priority: int = NORMAL) -> "Event":
        """Trigger the event with an exception after ``delay`` sim-seconds."""
        if self._state != Event.PENDING:
            raise SimkitError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._exception = exception
        self._state = Event.TRIGGERED
        self.sim._schedule(self, delay=delay, priority=priority)
        return self

    # -- kernel hooks -------------------------------------------------------
    def _process(self) -> None:
        """Run callbacks.  Called exactly once, by the event loop."""
        self._state = Event.PROCESSED
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            callback(self)

    def __repr__(self) -> str:
        state = ("pending", "triggered", "processed")[self._state]
        label = self.name or self.__class__.__name__
        return f"<{label} {state} at t={self.sim.now:.6g}>"


class Timeout(Event):
    """An event that fires ``delay`` sim-seconds after creation.

    The hottest event type in the facility (every service time is one), so
    construction is inlined — slots are assigned directly rather than
    through :meth:`Event.__init__`, and the ``Timeout(...)`` label is
    rendered lazily by the :attr:`name` property.
    """

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None, priority: int = NORMAL):
        if not delay >= 0:  # also refuses NaN
            raise ValueError(f"negative timeout delay: {delay}")
        self.sim = sim
        self._name = None
        self.callbacks = []
        self._value = value
        self._exception = None
        self._state = Event.TRIGGERED
        self.defused = False
        self.delay = delay
        sim._schedule(self, delay=delay, priority=priority)

    @property
    def name(self) -> str:
        """Lazily formatted ``Timeout(<delay>)`` label."""
        return f"Timeout({self.delay:.6g})"


class Callback(Event):
    """Internal event type behind :meth:`Simulator.call_at`.

    Runs a bare thunk when processed; the ``call_at(<when>)`` label is
    rendered lazily and construction bypasses :meth:`Event.__init__`
    (timer rescheduling in netsim creates one of these per rebalance).
    """

    __slots__ = ("fn", "when")

    def __init__(self, sim: "Simulator", when: float, fn: Callable[[], None], priority: int = NORMAL):
        self.sim = sim
        self._name = None
        self.callbacks = []
        self._value = None
        self._exception = None
        self._state = Event.TRIGGERED
        self.defused = False
        self.fn = fn
        self.when = when
        sim._schedule(self, delay=when - sim.now, priority=priority)

    @property
    def name(self) -> str:
        """Lazily formatted ``call_at(<when>)`` label."""
        return f"call_at({self.when:.6g})"

    def _process(self) -> None:
        self._state = Event.PROCESSED
        callbacks, self.callbacks = self.callbacks, []
        self.fn()
        for callback in callbacks:
            callback(self)


class Process(Event):
    """A running simulation process, wrapping a generator.

    The process is itself an event that triggers when the generator returns;
    its value is the generator's return value.  Inside the generator,
    ``yield <event>`` suspends until the event triggers; if the event failed,
    its exception is thrown into the generator (which may catch it).

    Other processes may call :meth:`interrupt` to throw an
    :class:`~repro.simkit.errors.Interrupt` into the generator at the current
    simulation time.
    """

    __slots__ = ("_gen", "_target")

    def __init__(self, sim: "Simulator", generator: Generator, name: Optional[str] = None):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"Process requires a generator, got {type(generator).__name__}")
        super().__init__(sim, name=name or getattr(generator, "__name__", "process"))
        self._gen = generator
        self._target: Optional[Event] = None
        sim._processes[self] = None  # live until _finish
        # Bootstrap: resume once at the current time.
        boot = Event(sim, name=f"init:{self.name}")
        boot.callbacks.append(self._resume)
        boot.succeed(priority=URGENT)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._state == Event.PENDING

    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently waiting on, if any."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process raises
        :class:`~repro.simkit.errors.SimkitError`; a process must not
        interrupt itself.
        """
        if not self.is_alive:
            raise SimkitError(f"cannot interrupt finished process {self.name!r}")
        if self.sim.active_process is self:
            raise SimkitError("a process cannot interrupt itself")
        # Detach from whatever the process was waiting on.
        if self._target is not None and not self._target.processed:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._target = None
        poke = Event(self.sim, name=f"interrupt:{self.name}")
        poke.callbacks.append(self._resume)
        poke.defused = True
        poke.fail(Interrupt(cause), priority=URGENT)

    # -- generator driving ---------------------------------------------------
    def _resume(self, event: Event) -> None:
        self.sim._active_process = self
        self._target = None
        try:
            while True:
                try:
                    exc = event._exception
                    if exc is not None:
                        # Mark handled (a deliberate interrupt already is)
                        # and raise inside the generator.
                        event.defused = True
                        next_event = self._gen.throw(exc)
                    else:
                        next_event = self._gen.send(event._value)
                except StopIteration as stop:
                    self._finish(stop.value, None)
                    return
                except BaseException as exc:
                    if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                        raise
                    self._finish(None, exc)
                    return

                if not isinstance(next_event, Event):
                    error = SimkitError(
                        f"process {self.name!r} yielded {next_event!r}, which is not an Event"
                    )
                    try:
                        self._gen.throw(error)
                    except StopIteration as stop:
                        self._finish(stop.value, None)
                        return
                    except BaseException as exc2:
                        self._finish(None, exc2)
                        return
                    continue
                if next_event._state == Event.PROCESSED:
                    # Already happened: resume immediately with its outcome.
                    event = next_event
                    continue
                next_event.callbacks.append(self._resume)
                self._target = next_event
                return
        finally:
            self.sim._active_process = None

    def _finish(self, value: Any, exception: Optional[BaseException]) -> None:
        """The generator ended: leave the live set and trigger this event."""
        self.sim._processes.pop(self, None)
        self._state = Event.PENDING  # allow succeed()/fail()
        if exception is None:
            self.succeed(value, priority=URGENT)
        else:
            self.fail(exception, priority=URGENT)


class _Condition(Event):
    """Shared machinery for :class:`AllOf` / :class:`AnyOf`."""

    __slots__ = ("events", "_pending")

    def __init__(self, sim: "Simulator", events: Iterable[Event], name: str):
        super().__init__(sim, name=name)
        self.events: tuple[Event, ...] = tuple(events)
        for ev in self.events:
            if not isinstance(ev, Event):
                raise TypeError(f"{name} requires Events, got {type(ev).__name__}")
            if ev.sim is not sim:
                raise SimkitError("cannot mix events from different simulators")
        self._pending = sum(1 for ev in self.events if not ev.processed)
        already_failed = next((ev for ev in self.events if ev.processed and ev.failed), None)
        if already_failed is not None:
            already_failed.defused = True
            self.fail(already_failed._exception, priority=URGENT)
            return
        if self._ready():
            self.succeed(self._collect(), priority=URGENT)
        else:
            for ev in self.events:
                if not ev.processed:
                    ev.callbacks.append(self._check)
                elif ev.failed:
                    ev.defused = True

    def _ready(self) -> bool:  # pragma: no cover - overridden
        raise NotImplementedError

    def _collect(self) -> Any:
        return {ev: ev._value for ev in self.events if ev.ok}

    def _check(self, event: Event) -> None:
        self._pending -= 1
        failed = event._exception is not None
        if self._state >= Event.TRIGGERED:
            if failed:
                event.defused = True
            return
        if failed:
            event.defused = True
            self.fail(event._exception, priority=URGENT)
        elif self._ready():
            self.succeed(self._collect(), priority=URGENT)


class AllOf(_Condition):
    """Triggers when *all* constituent events have triggered.

    Value is a dict mapping each event to its value.  Fails fast if any
    constituent fails.
    """

    __slots__ = ()

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim, events, "AllOf")

    def _ready(self) -> bool:
        return self._pending == 0 and all(ev.ok for ev in self.events)


class AnyOf(_Condition):
    """Triggers when *any* constituent event has *fired* (been processed).

    Merely-scheduled events don't count: a :class:`Timeout` is born
    triggered (it knows its fire time at creation), so testing ``ev.ok``
    here would make any race against a timer resolve instantly at
    construction instead of at the timer's deadline.
    """

    __slots__ = ()

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        if not tuple(events := tuple(events)):
            raise ValueError("AnyOf requires at least one event")
        super().__init__(sim, events, "AnyOf")

    def _ready(self) -> bool:
        return any(ev.processed and ev.ok for ev in self.events)

    def _collect(self) -> Any:
        return {ev: ev._value for ev in self.events if ev.processed and ev.ok}
