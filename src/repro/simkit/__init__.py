"""Deterministic discrete-event simulation kernel for the LSDF reproduction.

``repro.simkit`` is a small, self-contained DES framework in the style of
SimPy: simulation *processes* are Python generators that ``yield`` events
(timeouts, resource requests, other processes) and are resumed by the
:class:`~repro.simkit.core.Simulator` event loop when those events trigger.

The kernel is the substrate for every simulated subsystem of the facility —
the 10 GE network, the disk arrays and tape library, HDFS, the MapReduce
scheduler, and the OpenNebula-style cloud.  Determinism is a hard guarantee:
given the same seed, every simulation in this repository replays the exact
same event trace (events are totally ordered by ``(time, priority, seq)``).

Public surface
--------------
:class:`Simulator`
    The event loop: ``now``, ``process()``, ``timeout()``, ``run()``.
:class:`Event`, :class:`Timeout`, :class:`Process`, :class:`AllOf`, :class:`AnyOf`
    Event types usable from process generators.
:class:`Resource`, :class:`PriorityResource`, :class:`Store`, :class:`Container`
    Shared-resource primitives (servers, queues, capacity levels).
:class:`Interrupt`
    Exception thrown into a process by :meth:`Process.interrupt`.
:mod:`~repro.simkit.monitor`
    Statistics collection (tallies, counters, time-weighted series).
:mod:`~repro.simkit.rand`
    Seeded, spawnable random streams.
:mod:`~repro.simkit.units`
    Byte/second unit constants and formatting helpers.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.simkit.core": ("Simulator",),
    "repro.simkit.errors": ("Interrupt", "SimkitError", "StopSimulation"),
    "repro.simkit.events": ("AllOf", "AnyOf", "Event", "Process", "Timeout"),
    "repro.simkit.monitor": ("Counter", "Tally", "TimeSeries", "TimeWeighted"),
    "repro.simkit.rand": ("RandomSource",),
    "repro.simkit.resources": (
        "Container", "PriorityResource", "Resource", "Store"),
})

__all__ = [
    "AllOf",
    "AnyOf",
    "Container",
    "Counter",
    "Event",
    "Interrupt",
    "PriorityResource",
    "Process",
    "RandomSource",
    "Resource",
    "SimkitError",
    "Simulator",
    "StopSimulation",
    "Store",
    "Tally",
    "TimeSeries",
    "TimeWeighted",
    "Timeout",
]
