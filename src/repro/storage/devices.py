"""Disk-array model.

A :class:`DiskArray` is the unit the paper's slide 7 counts in: "currently
2 PB in 2 storage systems (DDN, IBM)".  The model captures what the
facility-level experiments depend on:

* an aggregate streaming bandwidth shared by all concurrent operations
  (processor sharing, via :class:`~repro.storage.ps.FluidServer`);
* a fixed per-operation overhead (metadata, head positioning, controller
  latency) that penalises many-small-file workloads — the regime the
  zebrafish screens (200 k × 4 MB images/day) live in;
* capacity accounting with explicit allocate/free.
"""

from __future__ import annotations

from typing import Optional

from repro.simkit.core import Simulator
from repro.simkit.events import URGENT, Event
from repro.telemetry.hub import TelemetryHub
from repro.telemetry.metrics import Counter
from repro.storage.ps import FluidServer


class StorageError(Exception):
    """Raised on capacity exhaustion or bad device operations."""


class DiskArray:
    """A disk storage system with shared bandwidth and capacity accounting.

    Parameters
    ----------
    sim:
        The simulator.
    name:
        Device name (also its node name when attached to a network).
    capacity:
        Usable capacity in bytes.
    bandwidth:
        Aggregate streaming bandwidth in bytes/s, shared across all
        concurrent reads and writes.
    op_overhead:
        Fixed seconds of latency added to every operation.
    concurrency_limit:
        Optional cap on simultaneously-served operations.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        capacity: float,
        bandwidth: float,
        op_overhead: float = 0.005,
        concurrency_limit: Optional[int] = None,
    ):
        if capacity <= 0:
            raise ValueError("capacity must be > 0")
        if op_overhead < 0:
            raise ValueError("op_overhead must be >= 0")
        self.sim = sim
        self.name = name
        self.capacity = float(capacity)
        self.bandwidth = float(bandwidth)
        self.op_overhead = float(op_overhead)
        self._server = FluidServer(
            sim, bandwidth, concurrency_limit=concurrency_limit, name=f"{name}.io"
        )
        self._used = 0.0
        reg = TelemetryHub.for_sim(sim).registry
        self.bytes_read = reg.counter(
            "storage.array_bytes_read_total", "Bytes read from a disk array",
            unit="bytes", array=name)
        self.bytes_written = reg.counter(
            "storage.array_bytes_written_total", "Bytes written to a disk array",
            unit="bytes", array=name)
        self.op_latency = reg.summary(
            "storage.array_op_latency_seconds", "Per-operation disk latency",
            unit="seconds", array=name)
        reg.gauge_fn("storage.array_used_bytes", lambda: self._used,
                     "Bytes currently allocated on the array",
                     unit="bytes", array=name)
        reg.gauge_fn("storage.array_capacity_bytes", lambda: self.capacity,
                     "Usable capacity of the array",
                     unit="bytes", array=name)

    # -- capacity ------------------------------------------------------------
    @property
    def used(self) -> float:
        """Bytes currently allocated."""
        return self._used

    @property
    def free(self) -> float:
        """Bytes still allocatable."""
        return self.capacity - self._used

    @property
    def fill_fraction(self) -> float:
        """Used fraction of capacity in [0, 1]."""
        return self._used / self.capacity

    def allocate(self, nbytes: float) -> None:
        """Reserve capacity; raises :class:`StorageError` when full."""
        if nbytes < 0:
            raise ValueError("allocate size must be >= 0")
        if self._used + nbytes > self.capacity:
            raise StorageError(
                f"{self.name}: allocation of {nbytes:.3g} B exceeds free {self.free:.3g} B"
            )
        self._used += nbytes

    def release(self, nbytes: float) -> None:
        """Return previously allocated capacity."""
        if nbytes < 0:
            raise ValueError("release size must be >= 0")
        if nbytes > self._used + 1e-6:
            raise StorageError(f"{self.name}: release of {nbytes:.3g} B exceeds used")
        self._used = max(0.0, self._used - nbytes)

    # -- I/O ------------------------------------------------------------------
    def write(self, nbytes: float, allocate: bool = True) -> Event:
        """Write ``nbytes``; the returned event fires when durable, with
        the operation's latency as its value.

        With ``allocate=True`` (default) the capacity is reserved up front,
        so a full array raises immediately rather than mid-write.
        """
        if allocate:
            self.allocate(nbytes)
        return self._io(nbytes, self.bytes_written, "write")

    def read(self, nbytes: float) -> Event:
        """Read ``nbytes``; the returned event fires when delivered, with
        the operation's latency as its value."""
        return self._io(nbytes, self.bytes_read, "read")

    def delete(self, nbytes: float) -> None:
        """Drop a stored object, freeing its capacity (instantaneous)."""
        self.release(nbytes)

    def _io(self, nbytes: float, counter: Counter, op: str) -> Event:
        # An event chain, not a process: the overhead timeout submits the
        # job, the job's completion fires ``done`` (URGENT, as a finishing
        # process would).
        sim = self.sim
        start = sim.now
        done = Event(sim, name=f"{self.name}.{op}")

        def finish(_event: Optional[Event] = None) -> None:
            counter.add(nbytes)
            latency = sim.now - start
            self.op_latency.record(latency)
            done.succeed(latency, priority=URGENT)

        def serve(_event: Optional[Event] = None) -> None:
            if nbytes > 0:
                self._server.submit(nbytes).callbacks.append(finish)
            else:
                finish()

        if self.op_overhead > 0:
            sim.timeout(self.op_overhead).callbacks.append(serve)
        else:
            serve()
        return done

    # -- reporting ----------------------------------------------------------
    def effective_rate(self, elapsed: float) -> float:
        """Mean total throughput (read+write) over ``elapsed`` seconds."""
        return (self.bytes_read.value + self.bytes_written.value) / elapsed if elapsed > 0 else 0.0

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<DiskArray {self.name} {self._used / self.capacity:.1%} of "
            f"{self.capacity:.3g} B, {self.bandwidth:.3g} B/s>"
        )
