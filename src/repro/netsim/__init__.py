"""Flow-level network simulator for the LSDF 10 GE backbone.

The paper's network claims ("dedicated 10 GE backbone", "redundant routers",
"15 days to transfer 1 PB over an ideal 10 Gb/s link") are all about
bandwidth arithmetic under contention, not per-packet behaviour — so the
simulator is *fluid*: a transfer is a :class:`~repro.netsim.network.Flow`
that progresses at a rate set by max-min fair sharing of the links on its
path.  Whenever a flow starts, finishes, or a link/node fails, rates are
recomputed and completion times rescheduled.

Public surface
--------------
:class:`Topology`
    Nodes (hosts/routers/switches) and :class:`Link` capacities; supports
    failing and repairing nodes/links with automatic rerouting.
:class:`Network`
    The flow engine: ``transfer(src, dst, nbytes)`` returns an event that
    triggers when the transfer completes.
:func:`maxmin_rates`, :func:`equal_split_rates`
    The two bandwidth-sharing models (ablation E3).
:func:`build_lsdf_backbone`
    The canonical LSDF-2011 topology from slide 7.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.netsim.fairshare": ("equal_split_rates", "maxmin_rates"),
    "repro.netsim.network": (
        "Flow", "Network", "NetworkError", "NoRouteError", "TransferResult"),
    "repro.netsim.topology": ("Link", "Topology"),
    "repro.netsim.builders": (
        "build_lsdf_backbone", "build_fat_tree", "build_star"),
    "repro.netsim.traffic": ("TrafficConfig", "TrafficGenerator"),
})

__all__ = [
    "Flow",
    "Link",
    "Network",
    "NetworkError",
    "NoRouteError",
    "Topology",
    "TrafficConfig",
    "TrafficGenerator",
    "TransferResult",
    "build_fat_tree",
    "build_lsdf_backbone",
    "build_star",
    "equal_split_rates",
    "maxmin_rates",
]
