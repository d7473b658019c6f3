"""The per-simulator telemetry bundle.

One :class:`TelemetryHub` per :class:`~repro.simkit.core.Simulator` holds
the facility's :class:`~repro.telemetry.metrics.MetricsRegistry`, its
:class:`~repro.telemetry.events.EventBus` and the shared sim clock.
Subsystems call :meth:`TelemetryHub.for_sim` in their constructors — the
hub is created on first use and cached on the simulator — so every
component of a facility lands on the same spine without the hub being
threaded through every constructor signature.

Components with no simulator of their own (the ADAL client, the trigger
engine) accept an explicit hub, falling back to a private unclocked one
so they stay usable standalone.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.telemetry.bridge import MonitorBridge
from repro.telemetry.events import EventBus
from repro.telemetry.metrics import MetricsRegistry


class TelemetryHub:
    """Registry + bus + clock for one facility (or one standalone sim).

    Parameters
    ----------
    clock:
        Zero-argument current-time callable (``lambda: sim.now``); when
        ``None`` every event is stamped ``0.0``.
    enabled:
        Master switch: ``False`` makes every counter increment and event
        publication a no-op (the E15 overhead-ablation arm).  Callback
        gauges still read live state.
    event_capacity:
        Event-bus ring-buffer retention.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None,
                 enabled: bool = True, event_capacity: int = 4096):
        self.clock = clock or (lambda: 0.0)
        self.enabled = enabled
        self.registry = MetricsRegistry(enabled=enabled)
        self.bus = EventBus(clock=self.clock, capacity=event_capacity,
                            enabled=enabled)
        self.bridge = MonitorBridge(self)
        self._name_sequences: dict[str, int] = {}

    @classmethod
    def for_sim(cls, sim, enabled: Optional[bool] = None,
                event_capacity: int = 4096) -> "TelemetryHub":
        """The hub attached to ``sim``, created (and cached) on first use.

        ``enabled`` only takes effect at creation; later callers share
        whatever hub already exists.  The facility composition root calls
        this first, so its config decides.
        """
        hub = getattr(sim, "telemetry", None)
        if hub is None:
            hub = cls(
                clock=lambda: sim.now,
                enabled=True if enabled is None else enabled,
                event_capacity=event_capacity,
            )
            sim.telemetry = hub
        return hub

    def unique_name(self, prefix: str) -> str:
        """A deterministic per-hub sequence name (``prefix-0``, ``prefix-1``).

        Used to disambiguate label values when several instances of one
        component (e.g. ingest pipelines) share a facility.
        """
        n = self._name_sequences.get(prefix, 0)
        self._name_sequences[prefix] = n + 1
        return f"{prefix}-{n}"

    def close(self) -> None:
        """Release every callback into the instrumented objects: callback
        gauges keep their last reading, subscribers are detached.  What
        the hub recorded stays readable."""
        self.registry.freeze_callbacks()
        self.bus.clear_subscriptions()

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<TelemetryHub enabled={self.enabled} "
                f"metrics={len(self.registry)} events={self.bus.published}>")
