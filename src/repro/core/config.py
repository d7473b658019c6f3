"""Facility configuration.

:func:`lsdf_2011_config` encodes the deployment the paper describes:
slide 7's "currently 2 PB in 2 storage systems" (DDN 0.5 PB + IBM 1.4 PB),
the tape library, the dedicated 10 GE backbone with redundant routers, and
slide 11's "dedicated 60 nodes cluster ... + 110 TB Hadoop filesystem".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.simkit import units


@dataclass(frozen=True)
class ArraySpec:
    """One disk storage system."""

    name: str
    capacity: float
    bandwidth: float
    op_overhead: float = 0.005


@dataclass
class FacilityConfig:
    """What varies between the facilities this repo builds.

    A field lives here only while something outside this module and
    :mod:`repro.core.facility` sets or reads it; every other tunable is
    a parameter of the subsystem constructor that owns it."""

    # -- storage (slide 7) ----------------------------------------------------
    arrays: list[ArraySpec] = field(default_factory=list)
    hsm_high_water: float = 0.85
    hsm_low_water: float = 0.70

    # -- network (slide 7) -------------------------------------------------------
    daq_count: int = 4

    # -- fluid-event kernel -------------------------------------------------------
    #: Run ingest chunked: each microscope offers
    #: ``facility.FLUID_CHUNK_FRAMES`` frames at a time and agents land a
    #: batch with one storage write.  The frame stream and totals are
    #: those of per-frame ingest; latency and backlog grow by at most one
    #: chunk span.
    fluid_ingest: bool = False

    # -- analysis cluster (slide 11) ------------------------------------------------
    cluster_racks: int = 4
    nodes_per_rack: int = 15
    hdfs_node_capacity: float = 2 * units.TB  # 60 x 2 TB ≈ 110 TB usable

    # -- MapReduce ---------------------------------------------------------------------
    mr_scheduler: str = "delay"
    mr_speculation: bool = True

    # -- cloud (slide 11) -----------------------------------------------------------------
    cloud_scheduler: str = "rank"
    cloud_image_cache: bool = True

    # -- resilience layer ---------------------------------------------------------------
    #: Master switch: when False the facility behaves exactly like the seed
    #: code paths (no retries, no breakers, no dead-letter queue).
    resilience_enabled: bool = True

    # -- durability layer ---------------------------------------------------------------
    #: Master switch: when False the scrubber neither archives nor repairs
    #: (detection-only) — the E14 ablation's "off" arm.
    durability_enabled: bool = True
    #: Sleep between scrub passes when the daemon runs.
    scrub_interval: float = 6 * units.HOUR

    # -- placement policy ---------------------------------------------------------------
    #: Master switch: when False the convergence daemon detects drift but
    #: executes nothing (detection-only ablation arm).
    policy_enabled: bool = True
    #: Per-community replica byte budget (None = unlimited).
    policy_quota_bytes: float | None = None

    # -- overload-safe front door -------------------------------------------------------
    #: Master switch: when False the door still serves but with every
    #: overload defence off (no rate limits, shedding, brownout or
    #: deadline fail-fast) — the E18 ablation's naive arm.
    frontdoor_enabled: bool = True
    #: Worker processes draining the admission queue.
    frontdoor_workers: int = 4
    #: Multiplier on tenant client counts *and* rate limits (tiny CI arms).
    frontdoor_scale: float = 1.0

    # -- telemetry spine ----------------------------------------------------------------
    #: Master switch: when False the metrics registry and event bus become
    #: no-ops (instruments still exist, recording is skipped) — the E15
    #: overhead benchmark's "off" arm.
    telemetry_enabled: bool = True

    # -- workflow director --------------------------------------------------------------
    #: Bounded retries for failed actor firings (0 = fire once, seed behaviour).
    director_retry_attempts: int = 2
    #: Base delay between firing retries, seconds (exponential backoff).
    director_retry_base_delay: float = 5.0

    @property
    def cluster_nodes(self) -> int:
        """Total analysis-cluster node count."""
        return self.cluster_racks * self.nodes_per_rack

    @property
    def disk_capacity(self) -> float:
        """Total disk-array capacity."""
        return sum(a.capacity for a in self.arrays)


def lsdf_2011_config() -> FacilityConfig:
    """The canonical deployment of the paper (May 2011)."""
    return FacilityConfig(
        arrays=[
            ArraySpec("ddn", capacity=0.5 * units.PB, bandwidth=3 * units.GB),
            ArraySpec("ibm", capacity=1.4 * units.PB, bandwidth=5 * units.GB),
        ]
    )
