"""Declarative placement policy with self-healing convergence.

ROADMAP item 1 — the production-scale form of the paper's per-community
data-management policy (write-once ingest, disk/tape placement, tape
archival), generalised Rucio-style:

* :class:`~repro.policy.model.PlacementRule` declares what should exist
  ("2 disk replicas + 1 tape copy for microscopy; HDFS-local for DNA"),
  scoped by metadata queries, bounded by per-community
  :class:`~repro.policy.model.QuotaBook` budgets and lifetimes;
* the :class:`~repro.policy.engine.PolicyEngine` assigns every managed
  dataset its governing rule through the metadata query planner;
* the :class:`~repro.policy.drift.DriftDetector` diffs declared vs.
  actual replica state — reusing the consistency auditor's finding
  classifications for primary damage — and emits typed ``policy.drift``
  events;
* the :class:`~repro.policy.daemon.ConvergenceDaemon` (a
  bandwidth-budgeted simkit process) executes the difference through the
  resilience and durability layers until the facility is quiescent,
  with bounded retries and graceful degradation on quota or capacity
  exhaustion.

The same loop that enforces steady-state policy heals chaos incidents:
see ``Facility.policy_drill()`` and ``docs/placement.md``.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.policy.daemon": (
        "ACTION_BY_KIND", "ConvergenceDaemon", "ConvergenceReport"),
    "repro.policy.drift": (
        "CORRUPT_PRIMARY", "DRIFT_KINDS", "EXPIRED", "MISSING_HDFS",
        "MISSING_REPLICA", "MISSING_TAPE", "SURPLUS_REPLICA", "Drift",
        "DriftDetector", "hdfs_path"),
    "repro.policy.engine": ("PolicyEngine", "is_real_object"),
    "repro.policy.model": (
        "EXPIRED_TAG", "DeclaredState", "PlacementRule", "PolicyError",
        "QuotaBook", "QuotaExceededError", "community_defaults"),
})

__all__ = [
    "ACTION_BY_KIND",
    "CORRUPT_PRIMARY",
    "ConvergenceDaemon",
    "ConvergenceReport",
    "DRIFT_KINDS",
    "DeclaredState",
    "Drift",
    "DriftDetector",
    "EXPIRED",
    "EXPIRED_TAG",
    "MISSING_HDFS",
    "MISSING_REPLICA",
    "MISSING_TAPE",
    "PlacementRule",
    "PolicyEngine",
    "PolicyError",
    "QuotaBook",
    "QuotaExceededError",
    "SURPLUS_REPLICA",
    "community_defaults",
    "hdfs_path",
    "is_real_object",
]
