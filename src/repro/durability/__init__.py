"""Durability layer: WAL'd metadata, integrity scrubbing, consistency audit.

The resilience layer (PR 1) defends the facility against *transient* faults
— retries, timeouts, circuit breakers.  This package defends against the
*permanent* ones a petabyte facility actually loses data to:

* a metadata repository crash (``metadata_crash`` chaos) — survived by the
  :class:`~repro.durability.wal.WriteAheadLog` behind
  :class:`~repro.durability.durable.DurableMetadataStore`;
* silent bit-rot (``silent_corruption`` chaos) — caught by the
  :class:`~repro.durability.scrubber.IntegrityScrubber` re-hashing every
  object on a bandwidth budget;
* catalog/storage/block-map divergence — found by the
  :class:`~repro.durability.audit.ConsistencyAuditor` and fixed by the
  :class:`~repro.durability.repair.RepairPlanner`.

The :class:`~repro.durability.kit.DurabilityKit` bundles all of it per
facility, exactly like the :class:`~repro.resilience.kit.ResilienceKit`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.durability.audit": (
        "CHECKSUM_MISMATCH", "DARK_DATA", "FINDING_KINDS", "LOST_DATA",
        "UNDER_REPLICATED", "AuditReport", "ConsistencyAuditor", "Finding"),
    "repro.durability.durable": ("DurableMetadataStore",),
    "repro.durability.kit": ("DurabilityError", "DurabilityKit"),
    "repro.durability.repair": ("ACTIONS", "RepairOutcome", "RepairPlanner"),
    "repro.durability.scrubber": ("IntegrityScrubber", "ScrubPass"),
    "repro.durability.wal": (
        "FileWalStorage", "MemoryWalStorage", "ReplayResult", "WalError",
        "WalRecord", "WalStorage", "WriteAheadLog"),
})

__all__ = [
    "ACTIONS",
    "CHECKSUM_MISMATCH",
    "DARK_DATA",
    "FINDING_KINDS",
    "LOST_DATA",
    "UNDER_REPLICATED",
    "AuditReport",
    "ConsistencyAuditor",
    "DurabilityError",
    "DurabilityKit",
    "DurableMetadataStore",
    "FileWalStorage",
    "Finding",
    "IntegrityScrubber",
    "MemoryWalStorage",
    "RepairOutcome",
    "RepairPlanner",
    "ReplayResult",
    "ScrubPass",
    "WalError",
    "WalRecord",
    "WalStorage",
    "WriteAheadLog",
]
