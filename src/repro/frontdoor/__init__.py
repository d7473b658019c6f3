"""The overload-safe ADAL front door.

A request-serving layer between clients and the ADAL data path that stays
predictable when offered load exceeds capacity: bounded per-tenant
admission queues drained by weighted fair queueing, token-bucket rate
limits, CoDel-style adaptive shedding, brownout degradation tiers, and
end-to-end deadline propagation — plus the open-loop load generator and
the overload drill that prove it all works under a 5x saturation ramp.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.frontdoor.admission": (
        "NO_SHED_FLOOR", "REJECT_REASONS", "AdmissionCore", "AdmissionQueue",
        "ShedController", "TokenBucket"),
    "repro.frontdoor.brownout": ("TIER_NAMES", "BrownoutController"),
    "repro.frontdoor.drill": (
        "DrillResult", "PhaseStat", "run_overload_drill"),
    "repro.frontdoor.loadgen": ("LoadGenerator",),
    "repro.frontdoor.request": (
        "BATCH", "BULK", "INTERACTIVE", "OUTCOMES", "PRIORITY_NAMES",
        "Deadline", "Request", "TenantSpec", "default_tenants",
        "scaled_tenants"),
    "repro.frontdoor.service": ("FrontDoor",),
})

__all__ = [
    "AdmissionCore",
    "AdmissionQueue",
    "BrownoutController",
    "BATCH",
    "BULK",
    "Deadline",
    "DrillResult",
    "FrontDoor",
    "INTERACTIVE",
    "LoadGenerator",
    "NO_SHED_FLOOR",
    "OUTCOMES",
    "PRIORITY_NAMES",
    "PhaseStat",
    "REJECT_REASONS",
    "Request",
    "ShedController",
    "TIER_NAMES",
    "TenantSpec",
    "TokenBucket",
    "default_tenants",
    "run_overload_drill",
    "scaled_tenants",
]
