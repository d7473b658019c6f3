"""The structured event bus: typed facility events on the sim clock.

Discrete operational *occurrences* — chaos incidents, circuit-breaker
trips, dead-letter spills, scrub findings, trigger firings — don't fit
counters: operators need the *when/what/why* of each one.  The
:class:`EventBus` gives them a single spine: every publisher stamps the
simulated time, events land in a bounded ring buffer (old ones age out,
memory stays flat on long runs), per-kind totals survive ring eviction,
and consumers either query (:meth:`EventBus.events` / :meth:`tail`) or
subscribe with glob filters (``"breaker.*"``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Any, Callable, Optional, Sequence

INFO = "info"
WARNING = "warning"
ERROR = "error"

_SEVERITIES = (INFO, WARNING, ERROR)


@dataclass(frozen=True)
class FacilityEvent:
    """One timestamped operational occurrence.

    ``kind`` is a dotted category (``"breaker.trip"``,
    ``"chaos.incident"``); ``subject`` names what it happened to (an
    array, a store, a dataset URL); ``data`` carries kind-specific
    details.
    """

    time: float
    kind: str
    subject: str = ""
    severity: str = INFO
    data: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict:
        """JSON-able form."""
        return {
            "time": self.time,
            "kind": self.kind,
            "subject": self.subject,
            "severity": self.severity,
            "data": dict(self.data),
        }


class Subscription:
    """One registered callback with optional kind filters."""

    def __init__(self, bus: "EventBus", callback: Callable[[FacilityEvent], None],
                 kinds: Optional[Sequence[str]] = None):
        self._bus = bus
        self.callback = callback
        #: Glob patterns matched against the event kind (None = everything).
        self.kinds: Optional[tuple[str, ...]] = (
            tuple(kinds) if kinds is not None else None
        )
        self.delivered = 0

    def matches(self, kind: str) -> bool:
        """Whether an event of ``kind`` should be delivered here."""
        if self.kinds is None:
            return True
        return any(fnmatchcase(kind, pattern) for pattern in self.kinds)

    def cancel(self) -> None:
        """Detach this subscription from the bus."""
        self._bus._drop(self)


class EventBus:
    """Bounded ring buffer of :class:`FacilityEvent` plus subscriptions.

    Parameters
    ----------
    clock:
        Zero-argument callable giving the current (simulated) time; every
        published event is stamped with it.
    capacity:
        Ring-buffer retention; older events are evicted (per-kind counts
        are kept regardless).
    enabled:
        When ``False`` :meth:`publish` is a no-op — the telemetry-off
        ablation arm.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None,
                 capacity: int = 4096, enabled: bool = True):
        if capacity < 1:
            raise ValueError("EventBus capacity must be >= 1")
        self._clock = clock or (lambda: 0.0)
        self.capacity = capacity
        self.enabled = enabled
        self._ring: deque[FacilityEvent] = deque(maxlen=capacity)
        self._subscriptions: list[Subscription] = []
        self._counts: dict[str, int] = {}
        self._published = 0

    # -- publishing ---------------------------------------------------------
    def publish(self, kind: str, subject: str = "", severity: str = INFO,
                **data: Any) -> Optional[FacilityEvent]:
        """Stamp and record one event; deliver it to matching subscribers.

        Returns the event, or ``None`` when the bus is disabled.
        """
        if not self.enabled:
            return None
        if severity not in _SEVERITIES:
            raise ValueError(f"unknown severity {severity!r}")
        event = FacilityEvent(
            time=self._clock(), kind=kind, subject=subject,
            severity=severity, data=data,
        )
        self._ring.append(event)
        self._counts[kind] = self._counts.get(kind, 0) + 1
        self._published += 1
        if self._subscriptions:
            # Snapshot so a callback that (un)subscribes mid-delivery
            # doesn't perturb this fan-out; skipped when nobody listens.
            for subscription in list(self._subscriptions):
                if subscription.matches(kind):
                    subscription.delivered += 1
                    subscription.callback(event)
        return event

    # -- subscriptions ------------------------------------------------------
    def subscribe(self, callback: Callable[[FacilityEvent], None],
                  kinds: Optional[Sequence[str]] = None) -> Subscription:
        """Deliver future events (matching the ``kinds`` globs) to
        ``callback``; returns the cancellable :class:`Subscription`."""
        subscription = Subscription(self, callback, kinds)
        self._subscriptions.append(subscription)
        return subscription

    def _drop(self, subscription: Subscription) -> None:
        if subscription in self._subscriptions:
            self._subscriptions.remove(subscription)

    def clear_subscriptions(self) -> None:
        """Detach every subscriber (and whatever its callback captured)."""
        self._subscriptions.clear()

    # -- queries ------------------------------------------------------------
    def events(self, kind: Optional[str] = None, subject: Optional[str] = None,
               since: Optional[float] = None) -> list[FacilityEvent]:
        """Retained events, oldest first, optionally filtered.

        ``kind`` is a glob pattern; ``since`` keeps events with
        ``time >= since``.
        """
        out = []
        for event in self._ring:
            if kind is not None and not fnmatchcase(event.kind, kind):
                continue
            if subject is not None and event.subject != subject:
                continue
            if since is not None and event.time < since:
                continue
            out.append(event)
        return out

    def tail(self, n: int = 20, kind: Optional[str] = None) -> list[FacilityEvent]:
        """The last ``n`` (optionally kind-filtered) retained events."""
        matching = self.events(kind=kind)
        return matching[-n:] if n >= 0 else matching

    def counts(self) -> dict[str, int]:
        """Total events ever published, per kind (survives ring eviction)."""
        return dict(sorted(self._counts.items()))

    @property
    def published(self) -> int:
        """Total events ever published (retained or evicted)."""
        return self._published

    def __len__(self) -> int:
        return len(self._ring)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<EventBus retained={len(self)}/{self.capacity} "
                f"published={self._published}>")
