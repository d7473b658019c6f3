"""OpenNebula-style cloud environment (slide 11).

    "Cloud environment OpenNebula — users can deploy own dedicated
    data-processing VMs (customized environment!) — reliable, highly
    flexible, and very fast to deploy."

Models VM lifecycle on a host pool: scheduling (first-fit / rank / packing),
the *prolog* phase (image transfer from the image store to the host over
the facility network — the dominant deploy cost), boot, run, shutdown.
Per-host image caching is what makes redeploys "very fast" (ablated in
E11).

Public surface
--------------
:class:`CloudController`
    Deploy/shutdown VMs, queueing when the pool is full.
:class:`VMTemplate`, :class:`VirtualMachine`, :class:`Host`
    The data model.
:data:`SCHEDULERS`
    Placement policies by name.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.cloud.model": ("Host", "VirtualMachine", "VMState", "VMTemplate"),
    "repro.cloud.scheduler": (
        "SCHEDULERS", "first_fit", "pack", "rank_free_cpu"),
    "repro.cloud.controller": ("CloudController", "CloudError"),
})

__all__ = [
    "CloudController",
    "CloudError",
    "Host",
    "SCHEDULERS",
    "VMState",
    "VMTemplate",
    "VirtualMachine",
    "first_fit",
    "pack",
    "rank_free_cpu",
]
