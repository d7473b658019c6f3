"""The facility telemetry spine: one metrics registry, one event bus.

The LSDF is an *operations* paper — the facility lives on knowing its
ingest rates, transfer failures, HSM migrations and HDFS health.  Before
this package every subsystem kept private counters that
:mod:`repro.core.reporting` hand-assembled; now there is one spine:

:class:`MetricsRegistry`
    Labelled counters, gauges (direct or callback-backed), fixed-bucket
    histograms and exact-quantile summaries, registered under stable
    dotted names (``ingest.frames_total``,
    ``hsm.migrations_total{direction=...}``).
:class:`EventBus`
    Typed facility events with simulated timestamps — chaos incidents,
    breaker trips, dead-letter spills, scrub findings, trigger firings —
    kept in a bounded ring buffer with filterable subscriptions.
:class:`TelemetryHub`
    The per-simulator bundle of both (plus the sim clock); subsystems
    reach it via :meth:`TelemetryHub.for_sim` so a whole facility shares
    one spine without threading it through every constructor.
:class:`MonitorBridge`
    Sim-clock sampling of registry metrics into
    :class:`repro.simkit.monitor.TimeSeries` for plotting-style output.

Exports live in :mod:`repro.telemetry.export` (Prometheus text + JSON);
the CLI surfaces them as ``python -m repro.cli metrics`` / ``events``.
See ``docs/observability.md`` for naming conventions and examples.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.telemetry.metrics": (
        "Counter", "Gauge", "Histogram", "MetricError", "MetricFamily",
        "MetricsRegistry", "Summary"),
    "repro.telemetry.events": ("EventBus", "FacilityEvent", "Subscription"),
    "repro.telemetry.hub": ("TelemetryHub",),
    "repro.telemetry.bridge": ("MonitorBridge",),
    "repro.telemetry.export": ("to_json", "to_prometheus"),
})

__all__ = [
    "Counter",
    "EventBus",
    "FacilityEvent",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricFamily",
    "MetricsRegistry",
    "MonitorBridge",
    "Subscription",
    "Summary",
    "TelemetryHub",
    "to_json",
    "to_prometheus",
]
