"""The simulation event loop.

:class:`Simulator` owns the clock and the event queue.  Events are totally
ordered by ``(time, priority, sequence-number)`` which — together with seeded
random streams — makes every simulation in this repository bit-for-bit
reproducible.  The queue is a plain :mod:`heapq` list of
``(time, priority, tie, seq, event)`` entries: ``tie`` is 0 unless
:meth:`Simulator.enable_tie_shuffle` is on, and ``seq`` is unique, so the
comparison never reaches the event.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

from repro.simkit.errors import SimkitError, StopSimulation
from repro.simkit.events import NORMAL, AllOf, AnyOf, Callback, Event, Process, Timeout
from repro.simkit.rand import RandomSource

_INFINITY = float("inf")


class Simulator:
    """A discrete-event simulation environment.

    Parameters
    ----------
    seed:
        Seed for the simulator's root :class:`~repro.simkit.rand.RandomSource`.
        Subsystems should derive substreams via :meth:`RandomSource.spawn`
        so adding a new consumer never perturbs existing ones.
    start:
        Initial simulation time (seconds).

    Example
    -------
    >>> sim = Simulator(seed=7)
    >>> def hello():
    ...     yield sim.timeout(3.5)
    ...     return sim.now
    >>> proc = sim.process(hello())
    >>> sim.run()
    >>> proc.value
    3.5
    """

    def __init__(self, seed: int = 0, start: float = 0.0):
        self._now = float(start)
        # The pending events, kept a heap by heappush/heappop.
        self._queue: list[tuple[float, int, int, int, Event]] = []
        self._seq = 0
        self._active_process: Optional[Process] = None
        # Live processes in start order (what close() shuts down).
        self._processes: dict[Process, None] = {}
        self.random = RandomSource(seed)
        #: The telemetry hub for this simulation, attached lazily by
        #: :meth:`repro.telemetry.TelemetryHub.for_sim` (simkit itself
        #: never imports it — one-way layering).
        self.telemetry = None
        #: Arbitrary per-simulation scratch space for components to share.
        self.context: dict[str, Any] = {}
        #: Observers called as ``hook(when, priority, seq, event)`` for every
        #: event the loop processes (the determinism sanitizer's tap).
        self.trace_hooks: list[Callable[[float, int, int, Event], None]] = []
        # Optional race-detector mode: a seeded stream that randomises the
        # tie-break among same-(time, priority) events (see
        # ``enable_tie_shuffle``); ``None`` means strict insertion order.
        self._tie_rng: Optional[RandomSource] = None

    def enable_tie_shuffle(self, rng: RandomSource) -> None:
        """Randomise ordering among same-``(time, priority)`` events.

        Normally simultaneous events process in insertion order (the
        sequence number), which makes accidental order dependencies
        invisible.  With a tie-shuffle stream installed, each scheduled
        event gets a random tie-break drawn from ``rng`` *between*
        priority and sequence number — any behaviour that survives only
        because of insertion order now diverges, which is exactly what
        :mod:`repro.analysis.sanitize` looks for.  The stream must be
        independent of ``self.random`` so component draws are unaffected.
        """
        self._tie_rng = rng

    # -- clock ---------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    # -- event creation --------------------------------------------------------
    def event(self, name: Optional[str] = None) -> Event:
        """Create a pending :class:`Event` owned by this simulator."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value=value)

    def process(self, generator: Generator, name: Optional[str] = None) -> Process:
        """Start a new simulation process from a generator."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that triggers once all of ``events`` have triggered."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that triggers once any of ``events`` has triggered."""
        return AnyOf(self, events)

    def call_at(self, when: float, fn: Callable[[], None], priority: int = NORMAL) -> Event:
        """Run ``fn()`` at absolute simulation time ``when``.

        ``priority`` orders the callback among same-time events (e.g.
        :data:`~repro.simkit.events.LOW` runs it after all normal work at
        that instant — how netsim batches same-instant rate solves).
        """
        if not when >= self._now:  # also refuses NaN
            raise SimkitError(f"call_at({when}) is in the past (now={self._now})")
        return Callback(self, when, fn, priority=priority)

    # -- scheduling (kernel internal) -----------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0, priority: int = NORMAL) -> None:
        if not delay >= 0:  # also refuses NaN
            raise SimkitError(f"cannot schedule event in the past (delay={delay})")
        self._seq += 1
        if self._tie_rng is None:
            heappush(self._queue, (self._now + delay, priority, 0, self._seq, event))
        else:
            tie = self._tie_rng.integers(0, 2**31)
            heappush(self._queue, (self._now + delay, priority, tie, self._seq, event))

    # -- execution ---------------------------------------------------------------
    @property
    def queue_empty(self) -> bool:
        """True when no future events remain."""
        return not self._queue

    @property
    def events_scheduled(self) -> int:
        """Total events ever scheduled (the monotonic sequence counter)."""
        return self._seq

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else _INFINITY

    def _dispatch(self, when: float, prio: int, seq: int, event: Event) -> None:
        """Process one popped event: advance the clock, tap the trace
        hooks, run the event, escalate undefused failures.

        This is the *single* event-execution path — :meth:`step` and
        :meth:`run` both land here, so the stepping path and the run loop
        cannot drift apart.
        """
        self._now = when
        for hook in self.trace_hooks:
            hook(when, prio, seq, event)
        event._process()
        if event._exception is not None and not event.defused:
            raise event._exception

    def step(self) -> None:
        """Pop and process the single next event.

        Raises the exception of a failed event that nobody *defused*
        (i.e. no process or condition was waiting to handle it) so
        programming errors inside processes surface instead of being
        silently dropped.
        """
        if not self._queue:
            raise SimkitError("step() on an empty event queue")
        when, prio, _tie, seq, event = heappop(self._queue)
        self._dispatch(when, prio, seq, event)

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the event loop.

        Parameters
        ----------
        until:
            ``None``
                run until the event queue drains;
            a number
                run until that simulation time (the clock is advanced to
                exactly ``until`` even if no event falls on it);
            an :class:`Event`
                run until that event is processed, returning its value.
        """
        stop_event: Optional[Event] = None
        stop_time = _INFINITY
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            stop_time = float(until)
            if not stop_time >= self._now:  # also refuses NaN
                raise SimkitError(f"run(until={stop_time}) is in the past (now={self._now})")

        # Every pop funnels through _dispatch (shared with step()) so
        # traced and untraced runs execute identical event logic.
        queue = self._queue
        dispatch = self._dispatch
        try:
            while queue:
                if stop_event is not None and stop_event._state == Event.PROCESSED:
                    return stop_event._value if stop_event._exception is None else None
                if queue[0][0] > stop_time:
                    self._now = stop_time
                    return None
                when, prio, _tie, seq, event = heappop(queue)
                dispatch(when, prio, seq, event)
        except StopSimulation:
            return None
        if stop_event is not None:
            if stop_event.processed:
                return stop_event._value if stop_event.ok else None
            raise SimkitError("run(until=event): queue drained before event triggered")
        if stop_time is not _INFINITY and stop_time > self._now:
            self._now = stop_time
        return None

    def close(self) -> None:
        """End this simulation for good; idempotent.

        Closes the generator of every live process (running its
        ``finally`` blocks) except the one calling, then drops every
        queued event.  A process blocked forever on a store or a
        resource otherwise keeps its generator frame — and whatever that
        frame references — alive in a reference cycle.  Afterwards
        :meth:`run` returns at once.
        """
        while self._processes:
            processes, self._processes = self._processes, {}
            for process in processes:
                if process is not self._active_process:
                    process._gen.close()
        self._queue.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator t={self._now:.6g} queued={len(self._queue)}>"
