"""The composed ingest pipeline and its report.

:class:`IngestPipeline` wires N microscopes -> one DAQ buffer -> M transfer
agents -> storage pool + metadata store, runs it for a simulated duration,
and produces an :class:`IngestReport` with the numbers experiment E1 checks
against the paper (frames/day, TB/day, latency, backlog, drops).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI leg
    np = None

from repro.simkit.core import Simulator
from repro.simkit import units
from repro.simkit.monitor import _percentile
from repro.telemetry.hub import TelemetryHub
from repro.netsim.network import Network
from repro.metadata.store import MetadataStore
from repro.resilience.kit import ResilienceKit
from repro.ingest.daq import DaqBuffer
from repro.ingest.microscope import HighThroughputMicroscope, MicroscopeConfig
from repro.ingest.transfer import StorageSink, TransferAgent


@dataclass
class IngestReport:
    """Outcome of an ingest run."""

    duration: float
    frames_acquired: int
    frames_ingested: int
    frames_dropped: int
    bytes_ingested: float
    latency_mean: float
    latency_p95: float
    latency_max: float
    backlog_mean_bytes: float
    backlog_peak_bytes: float
    #: Frames spilled to the dead-letter queue after retry exhaustion.
    frames_dead_lettered: int = 0
    #: Frames dropped by agents running the ``on_error="drop"`` ablation.
    frames_lost: int = 0
    #: Batch retry attempts across all agents.
    retries: int = 0
    #: Failovers to an alternate destination array.
    failovers: int = 0

    @property
    def frames_per_day(self) -> float:
        """Achieved ingest rate, frames/day."""
        return self.frames_ingested / self.duration * units.DAY if self.duration else 0.0

    @property
    def bytes_per_day(self) -> float:
        """Achieved ingest rate, bytes/day."""
        return self.bytes_ingested / self.duration * units.DAY if self.duration else 0.0

    @property
    def frames_unaccounted(self) -> int:
        """Acquired frames with no recorded fate (0 = zero silent loss).

        Frames still sitting in the DAQ buffer at report time show up here;
        after a full drain this must be exactly zero."""
        return (self.frames_acquired - self.frames_ingested - self.frames_dropped
                - self.frames_dead_lettered - self.frames_lost)

    def rows(self) -> list[tuple[str, str]]:
        """Human-readable summary rows (for benches)."""
        out = [
            ("frames/day", f"{self.frames_per_day:,.0f}"),
            ("volume/day", units.fmt_bytes(self.bytes_per_day)),
            ("ingest latency mean", units.fmt_duration(self.latency_mean)),
            ("ingest latency p95", units.fmt_duration(self.latency_p95)),
            ("DAQ backlog mean", units.fmt_bytes(self.backlog_mean_bytes)),
            ("DAQ backlog peak", units.fmt_bytes(self.backlog_peak_bytes)),
            ("frames dropped", f"{self.frames_dropped}"),
        ]
        # Resilience rows appear only when the run actually exercised them,
        # keeping quiet-run reports identical to the pre-resilience format.
        if self.retries:
            out.append(("batch retries", f"{self.retries}"))
        if self.failovers:
            out.append(("array failovers", f"{self.failovers}"))
        if self.frames_dead_lettered:
            out.append(("frames dead-lettered", f"{self.frames_dead_lettered}"))
        if self.frames_lost:
            out.append(("frames lost (no resilience)", f"{self.frames_lost}"))
        return out


class IngestPipeline:
    """Microscopes -> DAQ buffer -> transfer agents -> pool (+ metadata).

    Each microscope offers ``chunk_frames`` frames at a time; above 1 the
    agents also land a batch with one aggregate storage write.
    """

    def __init__(
        self,
        sim: Simulator,
        net: Network,
        daq_node: str,
        sink: StorageSink,
        microscope_configs: Sequence[MicroscopeConfig],
        store: Optional[MetadataStore] = None,
        project: str = "zebrafish",
        agents: int = 4,
        batch_size: int = 16,
        buffer_bytes: float = 500 * units.GB,
        buffer_policy: str = "block",
        resilience: Optional[ResilienceKit] = None,
        transfer_timeout: Optional[float] = None,
        on_error: str = "raise",
        chunk_frames: int = 1,
    ):
        self.sim = sim
        self.resilience = resilience
        # A per-pipeline prefix keeps agent/buffer label values unique when
        # several pipelines share one facility (and hence one registry).
        prefix = TelemetryHub.for_sim(sim).unique_name("pipeline")
        self.buffer = DaqBuffer(sim, buffer_bytes, policy=buffer_policy,
                                name=f"{prefix}.daq")
        self.microscopes = [
            HighThroughputMicroscope(sim, cfg, rng=sim.random.spawn(f"scope.{cfg.name}"),
                                     chunk_frames=chunk_frames)
            for cfg in microscope_configs
        ]
        self.agents = [
            TransferAgent(
                sim,
                net,
                self.buffer,
                daq_node,
                sink,
                store=store,
                project=project,
                batch_size=batch_size,
                name=f"{prefix}.agent-{i}",
                resilience=resilience,
                transfer_timeout=transfer_timeout,
                on_error=on_error,
                bulk_writes=chunk_frames > 1,
            )
            for i in range(agents)
        ]

    def run(self, duration: float, drain_grace: float = 2 * units.HOUR) -> IngestReport:
        """Run acquisition for ``duration`` sim-seconds, then let the agents
        drain the remaining backlog for up to ``drain_grace``, and report."""
        for scope in self.microscopes:
            scope.run(self.buffer, duration=duration)
        for agent in self.agents:
            agent.start()
        self.sim.run(until=self.sim.now + duration)
        # Acquisition over: give agents time to drain, then stop them.
        self.sim.run(until=self.sim.now + drain_grace)
        for agent in self.agents:
            agent.stop()
        return self.report(duration)

    def report(self, duration: float) -> IngestReport:
        """Build the report for a run of the given acquisition duration."""
        frames_acquired = sum(m.frames_emitted for m in self.microscopes)
        frames_ingested = int(sum(a.ingested.value for a in self.agents))
        all_latency = [v for a in self.agents for v in a.latency.values()]
        if np is not None:
            lat = np.asarray(all_latency) if all_latency else np.asarray([float("nan")])
            latency_mean = float(np.mean(lat))
            latency_p95 = float(np.percentile(lat, 95))
            latency_max = float(np.max(lat))
        elif all_latency:
            latency_mean = math.fsum(all_latency) / len(all_latency)
            latency_p95 = _percentile(all_latency, 95)
            latency_max = max(all_latency)
        else:
            latency_mean = latency_p95 = latency_max = float("nan")
        return IngestReport(
            duration=duration,
            frames_acquired=frames_acquired,
            frames_ingested=frames_ingested,
            frames_dropped=int(self.buffer.dropped.value),
            bytes_ingested=sum(a.bytes_moved.value for a in self.agents),
            latency_mean=latency_mean,
            latency_p95=latency_p95,
            latency_max=latency_max,
            backlog_mean_bytes=self.buffer.backlog.mean(self.sim.now),
            backlog_peak_bytes=self.buffer.backlog.max,
            frames_dead_lettered=int(sum(a.dead_lettered.value for a in self.agents)),
            frames_lost=int(sum(a.lost.value for a in self.agents)),
            retries=int(sum(a.retried.value for a in self.agents)),
            failovers=int(sum(a.failovers.value for a in self.agents)),
        )
