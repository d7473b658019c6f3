"""The frame-path workloads: ``ingest_discrete`` and ``ingest_fluid``.

The E16 mix rebuilt from public API: stochastic-or-deterministic zebrafish
microscopes feeding transfer agents through the DAQ buffer while Poisson
background flows cross the whole backbone.  One repetition is one fresh
:class:`~repro.core.Facility` and one ``IngestPipeline.run``; an
operation is one acquired frame.

Latency on this path is the host time the simulator needs to advance the
facility by ``tick_s`` simulated seconds while frames are being acquired
(a probe process of the benchmark's own stamps the host clock on every
tick).  Its tail is where periodic stalls — a full-state metadata
snapshot, a solver rebuild — show up that the mean rate hides.
"""

from __future__ import annotations

import hashlib
import json
import time

from repro.core import Facility
from repro.core.config import lsdf_2011_config
from repro.durability.wal import WalStorage
from repro.netsim.traffic import TrafficConfig, TrafficGenerator
from repro.simkit.units import GB, HOUR, MB
from repro.workloads import zebrafish_microscopes

#: The simulated interior is attributed by call counts, not wall spans.
SPANNED = False


def build(size: dict, seed: int):
    """A fresh facility + pipeline + background traffic, nothing run yet."""
    cfg = lsdf_2011_config()
    cfg.scheduler = size["scheduler"]
    cfg.fluid_ingest = size["fluid"]
    fac = Facility(config=cfg, seed=seed)
    pipeline = fac.ingest_pipeline(
        zebrafish_microscopes(instruments=size["microscopes"],
                              deterministic=size["fluid"]),
        agents=size["agents"])
    endpoints = (fac.names.daq + fac.names.storage + [fac.names.heidelberg]
                 + fac.names.cluster[:size["cluster_nodes"]])
    TrafficGenerator(
        fac.sim, fac.net, endpoints,
        TrafficConfig(mean_interarrival=size["flow_interarrival_s"],
                      size_lo=size["flow_gb"][0] * GB,
                      size_hi=size["flow_gb"][1] * GB),
    ).start(duration=size["sim_hours"] * HOUR)
    return fac, pipeline


def setup_once(size: dict, seed: int) -> None:
    """Everything ``setup_s`` pays for after the imports."""
    build(size, seed)


def _ticker(sim, step: float, ticks: int, stamps: list[float]):
    for _ in range(ticks):
        yield sim.timeout(step)
        stamps.append(time.perf_counter())


class _CountingStorage(WalStorage):
    """Pass-through WAL medium that totals the bytes made durable."""

    def __init__(self, inner: WalStorage):
        self.inner = inner
        self.bytes_written = 0

    def read(self):
        return self.inner.read()

    def append(self, data):
        self.bytes_written += len(data)
        self.inner.append(data)

    def truncate(self, nbytes):
        self.inner.truncate(nbytes)

    def checkpoint(self, snapshot):
        self.bytes_written += len(snapshot)
        self.inner.checkpoint(snapshot)

    def read_snapshot(self):
        return self.inner.read_snapshot()


def one_rep(size: dict, seed: int, profiler=None) -> dict:
    """Build fresh state, run the pipeline once (timed), check the result."""
    started = time.perf_counter()
    fac, pipeline = build(size, seed)
    duration = size["sim_hours"] * HOUR
    stamps: list[float] = []
    fac.sim.process(
        _ticker(fac.sim, size["tick_s"], int(duration // size["tick_s"]),
                stamps), name="perfbench.ticker")
    counting = _CountingStorage(fac.metadata.wal.storage)
    fac.metadata.wal.storage = counting
    ready = time.perf_counter()
    stamps.append(ready)
    if profiler is not None:
        profiler.enable()
    report = pipeline.run(duration=duration)
    if profiler is not None:
        profiler.disable()
    done = time.perf_counter()

    net = fac.net
    digest = hashlib.sha256(json.dumps([
        repr(report), fac.sim.events_scheduled, net.bytes_delivered.value,
        net.rebalances.value, net.solves.value, net.solves_skipped.value,
        json.dumps(fac.stats(), sort_keys=True),
    ]).encode("utf-8")).hexdigest()
    failed = (report.frames_dropped + report.frames_dead_lettered
              + report.frames_lost + report.frames_unaccounted)
    problems = []
    if report.frames_unaccounted != 0:
        problems.append(f"frames_unaccounted={report.frames_unaccounted}")
    if report.frames_ingested + failed != report.frames_acquired:
        problems.append("frame fates do not add up to frames acquired")
    if len(fac.metadata) != report.frames_ingested:
        problems.append(
            f"{report.frames_ingested} frames ingested but "
            f"{len(fac.metadata)} metadata records")

    frames = report.frames_acquired
    events = fac.sim.events_scheduled
    wall = done - ready
    rebalances = net.rebalances.value
    solves = net.solves.value
    routes = net.topology.route_cache_hits + net.topology.route_cache_misses
    layer = {
        "simkit.events_per_frame": events / frames,
        "simkit.host_us_per_event": wall / events * 1e6,
        "netsim.solves_per_frame": solves / frames,
        "netsim.solve_skip_ratio":
            net.solves_skipped.value / rebalances if rebalances else 0.0,
        "netsim.vector_solve_share":
            net.vector_solves.value / solves if solves else 0.0,
        "netsim.route_cache_hit_ratio":
            net.topology.route_cache_hits / routes if routes else 0.0,
        "ingest.retries": float(report.retries),
        "ingest.backlog_peak_mb": report.backlog_peak_bytes / MB,
        "ingest.sim_latency_p95_ms": report.latency_p95 * 1e3,
        "durability.snapshots": float(fac.metadata.snapshots),
        "durability.wal_bytes_per_frame": counting.bytes_written / frames,
        "metadata.records": float(len(fac.metadata)),
    }
    return {
        "build_s": ready - started,
        "wall_s": wall,
        "ops": frames,
        "failed": failed,
        "samples_ms": [(b - a) * 1e3 for a, b in zip(stamps, stamps[1:])],
        "problems": problems,
        "digest": digest,
        "layer": layer,
    }
