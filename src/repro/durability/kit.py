"""Facility-wide durability state: WAL'd catalog, scrubber, auditor, repair.

The :class:`DurabilityKit` is to durable faults what the
:class:`~repro.resilience.kit.ResilienceKit` is to transient ones: one
bundle per facility holding the durability archive (verified copies), the
:class:`~repro.durability.scrubber.IntegrityScrubber`, the
:class:`~repro.durability.audit.ConsistencyAuditor`, the
:class:`~repro.durability.repair.RepairPlanner`, the chaos hooks
(``silent_corruption`` injects through :meth:`corrupt_objects`), and the
mean-time-to-detect bookkeeping the Durability report section renders.
"""

from __future__ import annotations

from functools import partial
from typing import Generator, Optional, Sequence

from repro.adal.api import BackendRegistry
from repro.adal.backends.faulty import FaultyBackend
from repro.adal.backends.memory import MemoryBackend
from repro.durability.audit import CHECKSUM_MISMATCH, ConsistencyAuditor, Finding
from repro.durability.durable import DurableMetadataStore
from repro.durability.repair import RepairOutcome, RepairPlanner
from repro.durability.scrubber import IntegrityScrubber
from repro.metadata.store import MetadataStore
from repro.resilience.policy import RetryPolicy
from repro.simkit.core import Simulator
from repro.simkit.events import Event
from repro.simkit.rand import RandomSource
from repro.telemetry.events import ERROR, EventBus
from repro.telemetry.hub import TelemetryHub
from repro.telemetry.metrics import Counter, Summary


class DurabilityError(Exception):
    """Durability-layer usage errors."""


class DurabilityKit:
    """Shared durability state for one facility.

    Parameters
    ----------
    sim:
        The facility simulator.
    registry:
        ADAL backend registry (scrub/audit/repair target).
    metadata:
        The metadata repository — a
        :class:`~repro.durability.durable.DurableMetadataStore` gets
        crash/recover chaos support; a plain store degrades gracefully.
    stores:
        Store names under durability management.
    hdfs, hsm, dlq:
        Repair-path collaborators (HDFS re-replication, tape recall,
        dead-lettering).
    scrub_bandwidth, scrub_interval:
        Scrubber budget and daemon cadence.
    enabled:
        When ``False`` the scrubber never archives or repairs and the E14
        ablation arm measures the undefended facility.
    """

    def __init__(
        self,
        sim: Simulator,
        registry: BackendRegistry,
        metadata: MetadataStore,
        stores: Sequence[str] = ("lsdf",),
        hdfs=None,
        hsm=None,
        dlq=None,
        replica_stores: Sequence[str] = (),
        scrub_bandwidth: float = 500e6,
        scrub_interval: float = 6 * 3600.0,
        enabled: bool = True,
    ):
        self.sim = sim
        self.registry = registry
        self.metadata = metadata
        self.stores = tuple(stores)
        self.enabled = enabled
        self.rng = sim.random.spawn("durability")
        #: Verified copies the scrubber lays down; the repair restore source.
        self.archive = MemoryBackend()
        # Scrub/repair run during exactly the incidents that make backends
        # flaky — every backend touch goes through a retry guard with its
        # own seeded jitter substream.
        self.retry_policy = RetryPolicy(max_attempts=3, base_delay=1.0)
        self.planner = RepairPlanner(
            sim, registry, self.archive, replica_stores=replica_stores,
            hdfs=hdfs, hsm=hsm, dlq=dlq,
            retry_policy=self.retry_policy,
            retry_rng=self.rng.spawn("repair-retry"),
        )
        self.auditor = ConsistencyAuditor(
            metadata, registry, stores=self.stores,
            namenode=hdfs.namenode if hdfs is not None else None,
            clock=lambda: sim.now,
        )
        self.scrubber = IntegrityScrubber(
            sim, registry, metadata=metadata, stores=self.stores,
            bandwidth=scrub_bandwidth, interval=scrub_interval,
            archive=self.archive if enabled else None,
            planner=self.planner if enabled else None,
            retry_policy=self.retry_policy,
            retry_rng=self.rng.spawn("scrub-retry"),
        )
        # -- chaos / MTTD bookkeeping ------------------------------------------
        self._corrupted_at: dict[str, float] = {}
        self._hub = TelemetryHub.for_sim(sim)
        reg = self._hub.registry
        self.corruptions_injected = reg.counter(
            "durability.corruptions_injected_total",
            "Silent corruptions injected by chaos")
        self.corruptions_detected = reg.counter(
            "durability.corruptions_detected_total",
            "Checksum mismatches caught by scrub/audit")
        self.detect_latency = reg.summary(
            "durability.detect_latency_seconds",
            "Injection -> detection latency (MTTD)", unit="seconds")
        reg.gauge_fn("durability.enabled",
                     lambda: 1.0 if self.enabled else 0.0,
                     "Whether the durability layer is active")
        reg.gauge_fn("durability.audits_total",
                     lambda: float(self.auditor.audits_run),
                     "Consistency audits run")
        reg.gauge_fn("durability.unrepairable_total",
                     lambda: float(sum(1 for o in self.planner.outcomes
                                       if not o.repaired)),
                     "Findings no repair action could fix")
        reg.gauge_fn("durability.archive_objects",
                     lambda: float(len(self.archive.listdir(""))),
                     "Verified copies held by the durability archive")
        # Detections go to a function of the bookkeeping alone: a bound
        # method would make kit <-> scrubber a reference cycle.
        self._note_detection = self.scrubber.on_detect = partial(
            _note_detection, self._corrupted_at, self.corruptions_detected,
            self.detect_latency, self._hub.bus)

    # -- chaos hooks ----------------------------------------------------------
    def corrupt_objects(
        self,
        store: str,
        count: int = 1,
        paths: Optional[Sequence[str]] = None,
        rng: Optional[RandomSource] = None,
    ) -> list[str]:
        """Flip bytes of stored objects *without touching any metadata*.

        The backend's own stat keeps reporting the original checksum — the
        corruption is silent, exactly what the scrubber exists to catch.
        Returns the corrupted paths.  Used by the ``silent_corruption``
        incident.
        """
        rng = rng or self.rng
        backend = self.registry.resolve(store)
        if isinstance(backend, FaultyBackend):
            backend = backend.inner  # corrupt the bytes, not the fault injector
        objects = getattr(backend, "_objects", None)
        if objects is None:
            raise DurabilityError(
                f"store {store!r} ({backend.kind}) does not support byte-level "
                "corruption injection"
            )
        if paths is None:
            candidates = sorted(p for p, (data, _info) in objects.items() if data)
            if not candidates:
                return []
            count = min(count, len(candidates))
            chosen = []
            for _ in range(count):
                pick = candidates[rng.integers(0, len(candidates))]
                candidates.remove(pick)
                chosen.append(pick)
        else:
            chosen = list(paths)
        corrupted = []
        for path in chosen:
            data, info = objects[path]
            if not data:
                continue
            flipped = bytearray(data)
            flipped[rng.integers(0, len(flipped))] ^= 0xFF
            objects[path] = (bytes(flipped), info)  # stat stays pristine
            url = f"adal://{store}/{path}"
            self._corrupted_at[url] = self.sim.now
            self.corruptions_injected.add(1)
            corrupted.append(path)
        return corrupted

    # -- crash / recovery -------------------------------------------------------
    def crash_metadata(self, torn_tail_bytes: int = 0) -> None:
        """Kill the metadata repository (``metadata_crash`` incident)."""
        if isinstance(self.metadata, DurableMetadataStore):
            self.metadata.crash(torn_tail_bytes=torn_tail_bytes)
        else:  # no WAL to tear: the best a plain store can do is go down
            self.metadata.set_available(False)

    def recover_metadata(self) -> int:
        """Replay snapshot+WAL back into the same store object; returns
        records replayed (0 for a plain store, which merely comes back up)."""
        if isinstance(self.metadata, DurableMetadataStore):
            return self.metadata.recover()
        self.metadata.set_available(True)
        return 0

    # -- the full loop -----------------------------------------------------------
    def audit_and_repair(self, verify_content: bool = True) -> Event:
        """Audit, repair every finding, then re-audit (a sim process).

        The event's value is ``(final_report, outcomes)`` — the repairs
        executed and the post-repair audit proving (or disproving) a clean
        facility.
        """
        return self.sim.process(self._audit_and_repair(verify_content),
                                name="durability.audit")

    def _audit_and_repair(self, verify_content: bool) -> Generator:
        report = self.auditor.audit(verify_content=verify_content)
        for finding in report.findings:
            self._note_detection(finding)
        outcomes: list[RepairOutcome] = []
        if report.findings:
            outcomes = yield self.planner.execute(report)
        final = self.auditor.audit(verify_content=verify_content)
        return final, outcomes

    # -- reporting ------------------------------------------------------------
    def stats(self) -> dict:
        """Headline durability numbers (machine-readable)."""
        last_audit = self.auditor.last_report
        out = {
            "enabled": self.enabled,
            "scrub_passes": len(self.scrubber.passes),
            "scrub_objects": int(self.scrubber.objects_scanned.value),
            "scrub_bytes": self.scrubber.bytes_scanned.value,
            "scrub_coverage": self.scrubber.coverage(),
            "corruptions_injected": int(self.corruptions_injected.value),
            "corruptions_detected": int(self.corruptions_detected.value),
            "mean_time_to_detect": (
                self.detect_latency.mean if self.detect_latency.count else None
            ),
            "repairs": self.planner.counts(),
            "unrepairable": sum(
                1 for o in self.planner.outcomes if not o.repaired
            ),
            "audits_run": self.auditor.audits_run,
            "last_audit": last_audit.by_kind() if last_audit else None,
            "archive_objects": len(self.archive.listdir("")),
        }
        if isinstance(self.metadata, DurableMetadataStore):
            out["metadata"] = self.metadata.durability_stats()
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<DurabilityKit enabled={self.enabled} "
            f"scrub_passes={len(self.scrubber.passes)} "
            f"detected={int(self.corruptions_detected.value)}>"
        )


def _note_detection(corrupted_at: dict[str, float], detected: Counter,
                    latency: Summary, bus: EventBus, finding: Finding) -> None:
    """Book one finding: MTTD for an injected corruption, and the event."""
    if finding.kind != CHECKSUM_MISMATCH:
        return  # dark/lost/under-replicated findings are not corruptions
    injected = corrupted_at.pop(finding.subject, None)
    detected.add(1)
    if injected is not None:
        latency.record(finding.detected_at - injected)
    bus.publish(
        "durability.corruption_found", subject=finding.subject,
        severity=ERROR, detail=finding.detail,
        detect_latency=(finding.detected_at - injected
                        if injected is not None else None))
