"""The facility itself: configuration, composition, capacity planning.

:class:`Facility` is the composition root — it builds the canonical
LSDF-2011 deployment from a :class:`FacilityConfig`: the 10 GE backbone
with redundant routers, the DDN+IBM storage pool and tape library with HSM,
the racked 60-node Hadoop cluster (HDFS + MapReduce) grafted onto the same
network, the OpenNebula-style cloud on the cluster nodes, and the *real*
glue layer (metadata repository, ADAL, DataBrowser, trigger engine) wired
to all of it.

:class:`CapacityPlanner` reproduces the storage roadmap of slides 5/14
(2 PB now, 6 PB in 2012, community growth to 6 PB/year) — experiment E2.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.config": ("ArraySpec", "FacilityConfig", "lsdf_2011_config"),
    "repro.core.capacity": (
        "LSDF_PROCUREMENT", "CapacityPlanner", "CapacityRow"),
    "repro.core.facility": ("Facility",),
    "repro.core.reporting": ("FacilityReport", "ReportSection"),
    "repro.core.chaos": (
        "ChaosSchedule", "Incident", "durability_drill", "overload_drill",
        "policy_drill", "resilience_drill", "rolling_node_failures",
        "router_flap"),
})

__all__ = [
    "ArraySpec",
    "CapacityPlanner",
    "CapacityRow",
    "ChaosSchedule",
    "Facility",
    "FacilityConfig",
    "FacilityReport",
    "Incident",
    "LSDF_PROCUREMENT",
    "ReportSection",
    "durability_drill",
    "lsdf_2011_config",
    "overload_drill",
    "policy_drill",
    "resilience_drill",
    "rolling_node_failures",
    "router_flap",
]
