"""The declarative placement model: rules, quotas, community defaults.

A :class:`PlacementRule` states — Rucio-style — what the facility *should*
look like for the datasets its metadata query matches: how many healthy
disk copies exist (primary plus off-system replicas), whether a tape copy
is required, whether the dataset is staged HDFS-local for cluster
analysis, and for how long the placement is retained.  The rules are pure
declarations; the :class:`~repro.policy.drift.DriftDetector` diffs them
against reality and the
:class:`~repro.policy.daemon.ConvergenceDaemon` executes the difference.

Replica space is accounted per community through a :class:`QuotaBook` —
the per-project byte budgets of the paper's user agreements.  When a
community's budget is exhausted the daemon degrades gracefully (the copy
is skipped and reported, nothing crashes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.metadata.query import Q, Query

#: Tag placed on datasets whose retention lifetime has elapsed.  An
#: expired dataset keeps its write-once primary copy and any tape copy
#: (tape is the archival medium) but declares zero extra disk replicas,
#: so the convergence loop reclaims its replica-store space.
EXPIRED_TAG = "expired"


class PolicyError(Exception):
    """Bad placement-rule definitions or policy-engine usage."""


class QuotaExceededError(PolicyError):
    """A replica copy would overrun its community's byte budget."""


@dataclass(frozen=True)
class PlacementRule:
    """One declarative placement statement.

    Examples: "2 disk replicas + 1 tape copy for microscopy data",
    "HDFS-local staging for DNA sequencing output".

    Parameters
    ----------
    name:
        Unique rule name (duplicate registrations are rejected).
    scope:
        Metadata :class:`~repro.metadata.query.Query` selecting the
        datasets this rule governs — evaluated through the store's
        index-assisted query planner.
    disk_replicas:
        Total healthy disk copies required, *including* the primary
        (``2`` means primary + one replica-store copy).
    tape_copies:
        ``1`` to require a tape copy, ``0`` for none.
    hdfs_stage:
        Require the dataset staged into the analysis cluster's HDFS
        (the paper's "copy the screen data onto the cluster" step).
    lifetime:
        Retention in simulated seconds from the record's ``created``
        time; ``None`` keeps the placement forever.  On expiry the
        dataset is tagged :data:`EXPIRED_TAG` and its extra disk
        replicas are reclaimed.
    priority:
        When several rules match one dataset the highest priority wins
        (ties broken by rule name, so assignment is deterministic).
    """

    name: str
    scope: Query
    disk_replicas: int = 1
    tape_copies: int = 0
    hdfs_stage: bool = False
    lifetime: Optional[float] = None
    priority: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise PolicyError("placement rule needs a name")
        if self.disk_replicas < 1:
            raise PolicyError(
                f"rule {self.name!r}: disk_replicas must be >= 1 "
                "(the primary copy always counts)")
        if self.tape_copies not in (0, 1):
            raise PolicyError(
                f"rule {self.name!r}: tape_copies must be 0 or 1 "
                "(the library holds one archival copy per file id)")
        if self.lifetime is not None and self.lifetime <= 0:
            raise PolicyError(f"rule {self.name!r}: lifetime must be > 0")


@dataclass(frozen=True)
class DeclaredState:
    """What one rule declares for one dataset, resolved to concrete targets."""

    #: Replica-store names that must hold a healthy copy.
    replica_stores: tuple[str, ...] = ()
    #: Whether a tape copy is required.
    tape: bool = False
    #: Whether an HDFS staging is required.
    hdfs: bool = False


class QuotaBook:
    """Per-community byte budgets for replica space.

    Tracks bytes *charged* by the convergence daemon when it lays down a
    replica copy and *released* when a surplus copy is reclaimed.  A
    project without an explicit limit uses ``default_limit``
    (``None`` = unlimited).
    """

    def __init__(self, limits: Optional[dict[str, float]] = None,
                 default_limit: Optional[float] = None):
        self._limits: dict[str, float] = dict(limits or {})
        self.default_limit = default_limit
        self._used: dict[str, float] = {}

    def limit(self, project: str) -> Optional[float]:
        """The byte budget for a project (None = unlimited)."""
        return self._limits.get(project, self.default_limit)

    def set_limit(self, project: str, limit: Optional[float]) -> None:
        """Set (or clear, with None) one project's budget."""
        if limit is None:
            self._limits.pop(project, None)
        else:
            self._limits[project] = float(limit)

    def used(self, project: str) -> float:
        """Bytes currently charged against a project."""
        return self._used.get(project, 0.0)

    def headroom(self, project: str) -> Optional[float]:
        """Remaining budget (None = unlimited)."""
        limit = self.limit(project)
        if limit is None:
            return None
        return max(0.0, limit - self.used(project))

    def charge(self, project: str, nbytes: float) -> None:
        """Account ``nbytes`` of new replica space to a project.

        Raises :class:`QuotaExceededError` — without charging — when the
        budget would be overrun.
        """
        limit = self.limit(project)
        if limit is not None and self.used(project) + nbytes > limit:
            raise QuotaExceededError(
                f"project {project!r}: {nbytes:.3g} B replica copy would "
                f"exceed quota ({self.used(project):.3g}/{limit:.3g} B used)")
        self._used[project] = self.used(project) + float(nbytes)

    def release(self, project: str, nbytes: float) -> None:
        """Return reclaimed replica space to a project's budget."""
        self._used[project] = max(0.0, self.used(project) - float(nbytes))

    def snapshot(self) -> dict[str, dict[str, Optional[float]]]:
        """Per-project ``{used, limit}`` for reporting, sorted by name."""
        projects = sorted(set(self._used) | set(self._limits))
        return {
            name: {"used": self.used(name), "limit": self.limit(name)}
            for name in projects
        }

    def __repr__(self) -> str:  # pragma: no cover
        return f"<QuotaBook projects={len(self.snapshot())}>"


def community_defaults(replica_store_count: int = 2) -> list[PlacementRule]:
    """The paper's per-community default placements.

    Encodes the data-management policy of section IV for the four LSDF
    communities, scaled down to the replica stores actually configured
    (``replica_store_count`` caps ``disk_replicas`` at 1 + that count):

    * **microscopy** (the zebrafish screens): irreplaceable instrument
      output — two disk copies plus a tape copy;
    * **dna** sequencing: re-analysed on the cluster — HDFS-local
      staging plus a tape copy;
    * **katrin** / **anka**: detector archives — one disk copy with an
      archival tape copy.
    """
    replicas = max(1, min(2, 1 + replica_store_count))
    return [
        PlacementRule("microscopy-default", Q.project("zebrafish"),
                      disk_replicas=replicas, tape_copies=1, priority=10),
        PlacementRule("dna-default", Q.project("dna"),
                      disk_replicas=1, tape_copies=1, hdfs_stage=True,
                      priority=10),
        PlacementRule("katrin-default", Q.project("katrin"),
                      disk_replicas=1, tape_copies=1, priority=10),
        PlacementRule("anka-default", Q.project("anka"),
                      disk_replicas=1, tape_copies=1, priority=10),
    ]
