"""Facility status reports.

Renders the operator's view of the facility — the numbers the LSDF team
showed on slide 7 and would watch on a dashboard: storage fill per array,
tape usage, network volume, HDFS health, cloud/cluster occupancy, metadata
growth, ingest rates.  Since the telemetry spine landed, every number here
is a **registry view**: sections read the facility's
:class:`~repro.telemetry.MetricsRegistry` under stable metric names rather
than reaching into subsystem internals — the report is exactly what a
Prometheus scrape of ``repro.cli metrics`` would show, formatted for a
terminal.  Used by the CLI (``python -m repro.cli report``) and the
examples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.policy import DRIFT_KINDS
from repro.simkit import units

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.facility import Facility


@dataclass
class ReportSection:
    """One titled block of label/value rows."""

    title: str
    rows: list[tuple[str, str]] = field(default_factory=list)

    def add(self, label: str, value: str) -> None:
        """Append a row."""
        self.rows.append((label, value))

    def render(self, width: int = 30) -> str:
        """The section as aligned text."""
        lines = [f"-- {self.title} --"]
        for label, value in self.rows:
            lines.append(f"  {label:<{width}} {value}")
        return "\n".join(lines)


class FacilityReport:
    """Snapshot report of a :class:`~repro.core.facility.Facility`.

    Section order is defined once, explicitly, by the sort keys below and
    enforced with a stable sort at build time — never by the incidental
    order of method calls, so two reports of the same facility state are
    byte-identical.
    """

    #: ``(sort_key, builder)`` — the single source of section ordering.
    SECTION_ORDER: tuple[tuple[int, str], ...] = (
        (10, "_storage"),
        (20, "_tape"),
        (30, "_network"),
        (40, "_hdfs"),
        (50, "_cloud"),
        (60, "_metadata"),
        (70, "_resilience"),
        (75, "_frontdoor"),
        (80, "_durability"),
        (90, "_policy"),
    )

    def __init__(self, facility: "Facility"):
        self.facility = facility
        self.registry = facility.telemetry.registry
        built = [(key, getattr(self, name)()) for key, name in self.SECTION_ORDER]
        built.sort(key=lambda pair: (pair[0], pair[1].title))
        self.sections = [section for _key, section in built]

    # -- sections -----------------------------------------------------------
    def _storage(self) -> ReportSection:
        reg = self.registry
        section = ReportSection("storage estate")
        for array in self.facility.arrays:
            used = reg.value("storage.array_used_bytes", array=array.name)
            capacity = reg.value("storage.array_capacity_bytes", array=array.name)
            fill = used / capacity if capacity else 0.0
            section.add(
                f"{array.name} ({units.fmt_bytes(capacity)})",
                f"{units.fmt_bytes(used)} used ({fill:.1%}), "
                f"r/w {units.fmt_bytes(reg.value('storage.array_bytes_read_total', array=array.name))}/"
                f"{units.fmt_bytes(reg.value('storage.array_bytes_written_total', array=array.name))}",
            )
        pool_used = reg.total("storage.pool_used_bytes")
        pool_capacity = reg.total("storage.pool_capacity_bytes")
        pool_fill = pool_used / pool_capacity if pool_capacity else 0.0
        section.add("pool total",
                    f"{units.fmt_bytes(pool_used)} / "
                    f"{units.fmt_bytes(pool_capacity)} "
                    f"({pool_fill:.1%}), "
                    f"{int(reg.total('storage.pool_files'))} files")
        return section

    def _tape(self) -> ReportSection:
        reg = self.registry
        section = ReportSection("tape / HSM")
        section.add("cartridges", str(int(reg.total("tape.cartridges"))))
        section.add("archived",
                    f"{units.fmt_bytes(reg.total('tape.bytes_archived_total'))} "
                    f"({int(reg.value('hsm.migrations_total', direction='to_tape'))} migrations)")
        section.add("recalled",
                    f"{units.fmt_bytes(reg.total('tape.bytes_recalled_total'))} "
                    f"({int(reg.value('hsm.migrations_total', direction='to_disk'))} recalls)")
        section.add("mounts", f"{int(reg.total('tape.mounts_total'))}")
        return section

    def _network(self) -> ReportSection:
        reg = self.registry
        section = ReportSection("network (10 GE backbone)")
        section.add("delivered",
                    units.fmt_bytes(reg.value("net.bytes_delivered_total")))
        section.add("flows completed",
                    f"{reg.count('net.flow_duration_seconds')}")
        section.add("flows in flight", f"{int(reg.value('net.flows_inflight'))}")
        section.add("flows failed", f"{int(reg.value('net.flows_failed_total'))}")
        section.add("routers healthy",
                    f"{int(reg.value('net.routers_healthy'))}"
                    f"/{int(reg.value('net.routers_total'))}")
        return section

    def _hdfs(self) -> ReportSection:
        reg = self.registry
        section = ReportSection("HDFS (analysis cluster)")
        section.add("datanodes",
                    f"{int(reg.value('hdfs.datanodes_alive'))}"
                    f"/{int(reg.value('hdfs.datanodes_total'))} alive")
        section.add("files", f"{int(reg.value('hdfs.files'))}")
        section.add("raw used",
                    f"{units.fmt_bytes(reg.value('hdfs.used_bytes'))} / "
                    f"{units.fmt_bytes(reg.value('hdfs.capacity_bytes'))}")
        section.add("under-replicated blocks",
                    f"{int(reg.value('hdfs.under_replicated'))}")
        section.add("utilisation spread",
                    f"{reg.value('hdfs.utilization_spread'):.1%}")
        return section

    def _cloud(self) -> ReportSection:
        reg = self.registry
        section = ReportSection("cloud (OpenNebula-style)")
        section.add("VMs running", f"{int(reg.value('cloud.vms_running'))}")
        section.add("VMs pending", f"{int(reg.value('cloud.vms_pending'))}")
        section.add("pool CPU allocated",
                    f"{reg.value('cloud.cpu_allocated_fraction'):.1%}")
        deploy = reg.series("cloud.deploy_latency_seconds")
        if deploy is not None and deploy.count:
            section.add("deploy latency mean",
                        units.fmt_duration(deploy.mean))
        section.add("image-cache hits",
                    f"{int(reg.value('cloud.cache_hits_total'))}")
        return section

    def _metadata(self) -> ReportSection:
        reg = self.registry
        section = ReportSection("metadata repository")
        section.add("projects", f"{int(reg.value('metadata.projects'))}")
        section.add("datasets", f"{int(reg.value('metadata.datasets')):,}")
        section.add("processing records",
                    f"{int(reg.value('metadata.processing_records')):,}")
        section.add("catalogued bytes",
                    units.fmt_bytes(reg.value("metadata.bytes_catalogued")))
        section.add("tags in use", f"{int(reg.value('metadata.tags'))}")
        return section

    def _resilience(self) -> ReportSection:
        reg = self.registry
        kit = self.facility.resilience
        section = ReportSection("resilience")
        if not kit.enabled:
            section.add("status", "disabled")
            return section
        section.add("retries",
                    f"{int(reg.value('resilience.retries_total'))} "
                    f"(+{int(reg.value('adal.retries_total'))} adal)")
        section.add("failovers / timeouts",
                    f"{int(reg.value('resilience.reroutes_total'))} / "
                    f"{int(reg.value('resilience.timeouts_total'))}")
        open_now = sorted(kit.breakers.open_targets())
        section.add("breaker transitions",
                    f"{int(reg.value('resilience.breaker_transitions_total'))} "
                    f"({len(open_now)} open"
                    + (f": {', '.join(open_now)}" if open_now else "") + ")")
        section.add("dead-letter queue",
                    f"{int(reg.value('resilience.dlq_depth'))} frames "
                    f"({units.fmt_bytes(reg.value('resilience.dlq_bytes'))})")
        section.add("recovered vs lost",
                    f"{units.fmt_bytes(reg.value('resilience.recovered_bytes_total'))} vs "
                    f"{units.fmt_bytes(reg.value('resilience.lost_bytes_total'))}")
        return section

    def _frontdoor(self) -> ReportSection:
        reg = self.registry
        door = self.facility.frontdoor
        section = ReportSection("front door")
        if not door.core.enabled:
            section.add("status", "defences disabled (naive arm)")
        submitted = int(reg.total("frontdoor.requests_total"))
        admitted = int(reg.total("frontdoor.admitted_total"))
        section.add("requests",
                    f"{submitted:,} submitted, {admitted:,} admitted")
        acct = door.accounting()
        terminal = acct["terminal"]
        outcome_rows = [f"{outcome}: {count:,}"
                        for outcome, count in terminal.items() if count]
        section.add("outcomes",
                    ", ".join(outcome_rows) if outcome_rows else "none yet")
        section.add("silent loss", str(acct["silent_loss"]))
        section.add("queue",
                    f"{door.core.queue.depth} now, "
                    f"peak {door.core.queue.peak_depth}, "
                    f"{int(reg.value('frontdoor.in_flight'))} in flight")
        latency = reg.series("frontdoor.latency_seconds")
        if latency is not None and latency.count:
            section.add("latency p50/p99",
                        f"{units.fmt_duration(latency.percentile(0.5))} / "
                        f"{units.fmt_duration(latency.percentile(0.99))}")
        section.add("degradation",
                    f"tier {door.core.brownout.tier_name}, "
                    f"shed floor {door.core.shed.shed_floor}, "
                    f"load signal {door.core.brownout.signal:.2f}s")
        section.add("goodput",
                    units.fmt_bytes(
                        reg.total("frontdoor.goodput_bytes_total")))
        section.add("retries",
                    f"{int(reg.value('frontdoor.backend_retries_total'))} "
                    "backend, "
                    f"{int(reg.value('frontdoor.admitted_retries_total'))} "
                    "client resubmissions admitted")
        section.add("dead letters",
                    f"{door.dlq.depth} held, "
                    f"{door.dlq.evicted_count} evicted")
        return section

    def _durability(self) -> ReportSection:
        reg = self.registry
        kit = self.facility.durability
        section = ReportSection("durability")
        if not kit.enabled:
            section.add("status", "disabled (detection only)")
        section.add("scrub passes",
                    f"{int(reg.value('scrub.passes_total'))} "
                    f"({int(reg.value('scrub.objects_total'))} objects, "
                    f"{units.fmt_bytes(reg.value('scrub.bytes_total'))}, "
                    f"coverage {reg.value('scrub.coverage_ratio'):.0%})")
        mttd = reg.series("durability.detect_latency_seconds")
        section.add("corruptions detected",
                    f"{int(reg.value('durability.corruptions_detected_total'))}"
                    f"/{int(reg.value('durability.corruptions_injected_total'))} injected"
                    + (f", MTTD {units.fmt_duration(mttd.mean)}"
                       if mttd is not None and mttd.count else ""))
        repairs = kit.planner.counts()
        section.add("repairs",
                    ", ".join(f"{action} x{count}"
                              for action, count in sorted(repairs.items()))
                    if repairs else "none needed")
        section.add("unrepairable (dead-lettered)",
                    f"{int(reg.value('durability.unrepairable_total'))}")
        last_audit = kit.auditor.last_report
        if last_audit is not None:
            section.add("last audit",
                        ", ".join(f"{kind}: {count}"
                                  for kind, count in last_audit.by_kind().items()))
        else:
            section.add("last audit", "never run")
        if reg.has("metadata.wal_records"):
            section.add("metadata WAL",
                        f"{int(reg.value('metadata.wal_records'))} records "
                        f"({units.fmt_bytes(reg.value('metadata.wal_bytes'))}), "
                        f"{int(reg.value('metadata.snapshots'))} snapshots, "
                        f"{int(reg.value('metadata.recoveries'))}"
                        f"/{int(reg.value('metadata.crashes'))} "
                        "recoveries/crashes")
        return section

    def _policy(self) -> ReportSection:
        reg = self.registry
        daemon = self.facility.convergence
        engine = self.facility.policy
        section = ReportSection("placement policy")
        if not daemon.enabled:
            section.add("status", "disabled (detection only)")
        section.add("rules",
                    f"{int(reg.value('policy.rules'))} "
                    f"({int(reg.value('policy.managed_datasets'))} datasets "
                    "managed)")
        section.add("convergence passes",
                    f"{int(reg.value('policy.converge_passes_total'))} "
                    f"({int(reg.value('policy.converge_rounds_total'))} "
                    "rounds)")
        from repro.policy import DRIFT_KINDS

        drift_rows = [
            f"{kind}: {int(reg.value('policy.drift_detected_total', kind=kind))}"
            for kind in DRIFT_KINDS
            if reg.value("policy.drift_detected_total", kind=kind)
        ]
        section.add("drift detected",
                    ", ".join(drift_rows) if drift_rows else "none")
        tally = daemon.stats()["actions"]
        section.add("actions",
                    ", ".join(f"{label} x{count}"
                              for label, count in sorted(tally.items()))
                    if tally else "none needed")
        section.add("quota skips / abandoned",
                    f"{int(reg.value('policy.quota_skips_total'))} / "
                    f"{int(reg.value('policy.abandoned_keys'))}")
        quotas = engine.quotas.snapshot()
        charged = [name for name in sorted(quotas) if quotas[name]["used"]]
        if charged:
            section.add(
                "replica quota",
                ", ".join(
                    f"{name} {units.fmt_bytes(quotas[name]['used'])}"
                    + (f"/{units.fmt_bytes(quotas[name]['limit'])}"
                       if quotas[name]["limit"] is not None else "")
                    for name in charged))
        last = daemon.reports[-1] if daemon.reports else None
        if last is not None:
            section.add("last pass",
                        ("converged" if last.converged else "diverged")
                        + (" (degraded)" if last.degraded else "")
                        + f", {last.repaired} repaired / {last.failed} failed")
        return section

    # -- rendering ------------------------------------------------------------
    def render(self) -> str:
        """The whole report as text."""
        header = (
            f"== LSDF facility report @ t={units.fmt_duration(self.facility.sim.now)} =="
        )
        return "\n\n".join([header] + [s.render() for s in self.sections])

    def as_dict(self) -> dict:
        """Machine-readable form (section -> {label: value})."""
        return {
            section.title: dict(section.rows) for section in self.sections
        }
