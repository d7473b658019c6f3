"""Admission control: token buckets, fair queueing, CoDel-style shedding.

Three mechanisms keep the front door alive under overload:

* :class:`TokenBucket` — per-tenant rate limits (refilled lazily on the
  injected clock, so an idle bucket costs nothing);
* :class:`AdmissionQueue` — bounded per-tenant, priority-segmented queues
  drained by *start-time fair queueing*: each tenant accumulates virtual
  time at ``1/weight`` per served request and the smallest virtual time is
  served next, which converges to weighted fair shares at per-request
  granularity and is fully deterministic (ties break on tenant name);
* :class:`ShedController` — a CoDel-style drop controller keyed on queue
  *sojourn time*: when the delay of dequeued requests stays above
  ``target`` for a full ``interval``, the controller lowers its shed floor
  one priority class at a time (bulk first, never interactive) and
  recovers the moment sojourn falls back under target.

:class:`AdmissionCore` composes them with brownout into the admission
decision both doors share, the simulated
:class:`~repro.frontdoor.service.FrontDoor` and the asyncio
:class:`~repro.adal.wire.server.WireServer`, each on its own clock.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Dict, Optional, Sequence

from repro.frontdoor.brownout import TIER_NAMES, BrownoutController
from repro.frontdoor.request import (
    BATCH,
    BULK,
    INTERACTIVE,
    Request,
    TenantSpec,
)
from repro.telemetry.events import INFO, WARNING, EventBus

#: Priority classes in dequeue order (most urgent first).
_CLASSES = (INTERACTIVE, BATCH, BULK)

#: A shed floor of this value drops nothing (all classes admitted).
NO_SHED_FLOOR = BULK + 1

#: Reasons :meth:`AdmissionCore.admit` refuses with (label pre-registration).
REJECT_REASONS = ("rate_limited", "queue_full", "brownout")


class TokenBucket:
    """A lazily-refilled token bucket on an external clock.

    ``rate`` is tokens/second, ``burst`` the bucket depth.  ``rate=None``
    disables limiting (every take succeeds).
    """

    def __init__(self, clock: Callable[[], float], rate: Optional[float],
                 burst: Optional[float] = None):
        if rate is not None and rate <= 0:
            raise ValueError("rate must be > 0 (or None for unlimited)")
        self._clock = clock
        self.rate = rate
        self.burst = burst if burst is not None else (
            2.0 * rate if rate is not None else 0.0)
        self._tokens = self.burst
        self._stamp = clock()

    def _refill(self) -> None:
        now = self._clock()
        if self.rate is not None and now > self._stamp:
            self._tokens = min(self.burst,
                               self._tokens + (now - self._stamp) * self.rate)
        self._stamp = now

    def try_take(self, n: float = 1.0) -> bool:
        """Take ``n`` tokens if available; never blocks."""
        if self.rate is None:
            return True
        self._refill()
        if self._tokens >= n:
            self._tokens -= n
            return True
        return False

    @property
    def tokens(self) -> float:
        """Tokens currently available (after a lazy refill)."""
        self._refill()
        return self._tokens


class ShedController:
    """CoDel-style adaptive load shedding on queue sojourn time.

    Observed sojourns above ``target`` for a sustained ``interval`` lower
    the shed floor one class at a time; the first sub-target observation
    resets it.  The floor never reaches the interactive class: latency-
    sensitive traffic is protected by shedding everything else first.
    """

    def __init__(self, target: float, interval: float):
        if target <= 0 or interval <= 0:
            raise ValueError("target and interval must be > 0")
        self.target = target
        self.interval = interval
        self.shed_floor = NO_SHED_FLOOR
        self._above_since: Optional[float] = None
        self._next_escalation: Optional[float] = None

    @property
    def shedding(self) -> bool:
        """Whether any class is currently being shed."""
        return self.shed_floor < NO_SHED_FLOOR

    def observe(self, sojourn: float, now: float) -> None:
        """Feed one dequeue's queue delay into the controller."""
        if sojourn < self.target:
            self.shed_floor = NO_SHED_FLOOR
            self._above_since = None
            self._next_escalation = None
            return
        if self._above_since is None:
            self._above_since = now
            self._next_escalation = now + self.interval
            return
        if now >= self._next_escalation:
            # Escalate: drop one more class, but never the interactive one.
            self.shed_floor = max(BATCH, self.shed_floor - 1)
            self._next_escalation = now + self.interval

    def should_shed(self, request: Request) -> bool:
        """Whether the current floor drops this request's class."""
        return request.priority >= self.shed_floor


class _TenantQueue:
    """Internal per-tenant state: priority-segmented deques + fair-queue pass."""

    def __init__(self, name: str, weight: float, capacity: int):
        self.name = name
        self.weight = weight
        self.capacity = capacity
        self.lanes: Dict[int, deque] = {cls: deque() for cls in _CLASSES}
        self.depth = 0
        #: Start-time fair-queueing virtual time.
        self.vtime = 0.0

    def push(self, request: Request) -> None:
        self.lanes[request.priority].append(request)
        self.depth += 1

    def pop(self) -> Request:
        for cls in _CLASSES:
            lane = self.lanes[cls]
            if lane:
                self.depth -= 1
                return lane.popleft()
        raise IndexError("pop from empty tenant queue")


class AdmissionQueue:
    """Bounded per-tenant queues with weighted fair dequeue and shedding.

    ``offer`` returns ``False`` when the tenant's queue is full (the caller
    rejects and accounts the request).  ``pop`` applies, in order: expired-
    deadline fail-fast, the shed controller, then start-time fair queueing
    across tenants.  Dropped requests are reported through ``on_drop`` with
    a reason (``"expired"`` or ``"shed"``) so no request ever vanishes.
    """

    def __init__(
        self,
        clock: Callable[[], float],
        tenants: Dict[str, float],
        capacity: int,
        shed: Optional[ShedController] = None,
        on_drop: Optional[Callable[[Request, str], None]] = None,
        on_dequeue: Optional[Callable[[Request, float], None]] = None,
        fail_fast_expired: bool = True,
    ):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        for name, weight in sorted(tenants.items()):
            if weight < 1.0:
                raise ValueError(f"tenant {name!r} weight must be >= 1")
        self._clock = clock
        self.capacity = capacity
        self.shed = shed
        self._on_drop = on_drop
        self._on_dequeue = on_dequeue
        #: When False (the naive ablation arm) expired requests are handed
        #: to workers anyway — the server "doesn't know" about deadlines.
        self.fail_fast_expired = fail_fast_expired
        self._tenants = {
            name: _TenantQueue(name, weight, capacity)
            for name, weight in sorted(tenants.items())
        }
        self._order = sorted(self._tenants)
        self._global_vtime = 0.0
        self.depth = 0
        self.peak_depth = 0

    def tenant_depth(self, name: str) -> int:
        """Queued requests for one tenant."""
        return self._tenants[name].depth

    def offer(self, request: Request) -> bool:
        """Enqueue a request; ``False`` if the tenant's queue is full."""
        tq = self._tenants[request.tenant]
        if tq.depth >= tq.capacity:
            return False
        if tq.depth == 0:
            # A newly-active tenant joins at the current virtual time so an
            # idle period never banks an unbounded service burst.
            tq.vtime = max(tq.vtime, self._global_vtime)
        request.enqueued = self._clock()
        tq.push(request)
        self.depth += 1
        if self.depth > self.peak_depth:
            self.peak_depth = self.depth
        return True

    def _drop(self, request: Request, reason: str) -> None:
        if self._on_drop is not None:
            self._on_drop(request, reason)

    def pop(self) -> Optional[Request]:
        """Dequeue the next admissible request under fair sharing.

        Expired and shed requests are consumed (and reported via
        ``on_drop``) until an admissible one surfaces or the queues drain.
        """
        now = self._clock()
        while self.depth > 0:
            best: Optional[_TenantQueue] = None
            for name in self._order:
                tq = self._tenants[name]
                if tq.depth == 0:
                    continue
                if best is None or tq.vtime < best.vtime:
                    best = tq
            if best is None:
                return None
            request = best.pop()
            self.depth -= 1
            best.vtime += 1.0 / best.weight
            self._global_vtime = best.vtime
            if self.fail_fast_expired and request.deadline.expired(now):
                self._drop(request, "expired")
                continue
            sojourn = now - request.enqueued
            if self.shed is not None:
                self.shed.observe(sojourn, now)
                if self.shed.should_shed(request):
                    self._drop(request, "shed")
                    continue
            if self._on_dequeue is not None:
                self._on_dequeue(request, sojourn)
            return request
        return None

    def drain(self) -> list[Request]:
        """Remove and return every queued request (drill finalisation)."""
        out: list[Request] = []
        for name in self._order:
            tq = self._tenants[name]
            for cls in _CLASSES:
                out.extend(tq.lanes[cls])
                tq.lanes[cls].clear()
            tq.depth = 0
        self.depth = 0
        return out


class AdmissionCore:
    """The admission decision and books both front doors share.

    The core has no clock of its own: ``clock`` is the driver's, the
    simulation clock or the wall clock.  A driver offers requests through :meth:`admit`, takes work with
    ``queue.pop()`` or :meth:`drain`, and calls :meth:`settle` once a
    request that left the queue (popped, dropped through ``on_drop``, or
    drained) has its terminal answer; until then it is in flight.
    ``enabled=False`` is the ablation arm: only the queue bound refuses,
    nothing is shed or failed fast.  Tier changes publish
    ``frontdoor.brownout`` under the driver's ``subject``.
    """

    def __init__(self, clock: Callable[[], float],
                 tenants: Sequence[TenantSpec], *, enabled: bool,
                 queue_capacity: int, codel_target: float,
                 codel_interval: float, brownout_target: float,
                 bus: EventBus, subject: str,
                 is_write: Callable[[Any], bool],
                 on_drop: Callable[[Any, str], None]):
        self.enabled = enabled
        self._bus = bus
        self._subject = subject
        self._is_write = is_write
        self._on_drop = on_drop
        self.in_flight = 0
        self.shed = ShedController(target=codel_target,
                                   interval=codel_interval)
        self.brownout = BrownoutController(
            target=brownout_target, on_change=self._on_brownout_change)
        self.queue = AdmissionQueue(
            clock=clock,
            tenants={spec.name: spec.weight for spec in tenants},
            capacity=queue_capacity,
            shed=self.shed if enabled else None,
            on_drop=self._dropped,
            on_dequeue=self._dequeued,
            fail_fast_expired=enabled,
        )
        self.buckets = {spec.name: TokenBucket(clock, spec.rate_limit,
                                               spec.burst)
                        for spec in tenants}

    def admit(self, request: Any, tokens: float = 1.0) -> Optional[str]:
        """Queue ``request`` or return why not (one of
        :data:`REJECT_REASONS`): the brownout write gate, then the
        tenant's token bucket (``tokens`` taken), then the queue bound."""
        if self.enabled:
            if self.brownout.rejects_writes() and self._is_write(request):
                return "brownout"
            if not self.buckets[request.tenant].try_take(tokens):
                return "rate_limited"
        if not self.queue.offer(request):
            return "queue_full"
        return None

    def drain(self) -> list:
        """Take every queued request out; each is in flight until settled."""
        drained = self.queue.drain()
        self.in_flight += len(drained)
        return drained

    def settle(self) -> None:
        """One request that left the queue has its terminal answer."""
        self.in_flight -= 1

    def books(self, received: int, answered: int) -> dict:
        """The balance sheet: ``silent_loss`` is requests received minus
        those answered minus work still queued or in flight; it must be 0
        at all times."""
        queued = self.queue.depth
        return {"queued": queued, "in_flight": self.in_flight,
                "silent_loss": received - answered - queued - self.in_flight}

    def stats(self) -> dict:
        """The controllers' headline state (part of each driver's stats)."""
        return {"enabled": self.enabled,
                "peak_queue_depth": self.queue.peak_depth,
                "brownout_tier": self.brownout.tier,
                "shed_floor": self.shed.shed_floor}

    def _dropped(self, request: Any, reason: str) -> None:
        self.in_flight += 1
        self._on_drop(request, reason)

    def _dequeued(self, request: Any, sojourn: float) -> None:
        self.in_flight += 1
        if self.enabled:
            self.brownout.observe(sojourn)

    def _on_brownout_change(self, old: int, new: int, signal: float) -> None:
        self._bus.publish(
            "frontdoor.brownout", subject=self._subject,
            severity=WARNING if new > old else INFO,
            old=TIER_NAMES[old], new=TIER_NAMES[new], signal=signal)
