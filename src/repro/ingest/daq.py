"""The DAQ-side staging buffer.

Instruments write to a bounded local buffer (the acquisition workstation's
disk); transfer agents drain it towards the facility.  If the facility
cannot keep up, the buffer fills and — depending on policy — the microscope
*blocks* (a real robot pauses) or frames are *dropped* (data loss, the
failure mode the LSDF exists to prevent).  E1 reports the buffer's
time-averaged backlog and any drops.
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Sequence

from repro.simkit.core import Simulator
from repro.simkit.events import Event
from repro.simkit.monitor import TimeWeighted
from repro.telemetry.hub import TelemetryHub
from repro.ingest.microscope import ImageDescriptor


class DaqBuffer:
    """Bounded byte-capacity FIFO of acquired frames.

    One queue serves every producer (a microscope offers one chunk of
    ``chunk_frames`` frames at a time) and every
    consumer.  Nothing here is a process: an offer that fits returns
    ``None`` and costs no kernel event, a consumer waits with
    :meth:`wait` and takes with :meth:`pop`.

    Parameters
    ----------
    sim:
        The simulator.
    capacity_bytes:
        Buffer size; ``float('inf')`` for an unbounded buffer.
    policy:
        ``"block"`` (instrument waits, default) or ``"drop"`` (frame lost).
    """

    def __init__(self, sim: Simulator, capacity_bytes: float = float("inf"),
                 policy: str = "block", name: str = "daq"):
        if policy not in ("block", "drop"):
            raise ValueError(f"unknown DAQ policy {policy!r}")
        self.sim = sim
        self.capacity_bytes = capacity_bytes
        self.policy = policy
        self.name = name
        self._frames: deque[ImageDescriptor] = deque()
        self._bytes = 0.0
        # Time-weighted backlog stays a monitor primitive (the registry has
        # no time-weighted instrument); the live level is also exposed as a
        # callback gauge so dashboards see it without touching the buffer.
        self.backlog = TimeWeighted(sim.now, 0.0, name=f"{name}.backlog_bytes")
        reg = TelemetryHub.for_sim(sim).registry
        self.offered = reg.counter(
            "ingest.frames_offered_total", "Frames offered to the DAQ buffer",
            buffer=name)
        self.dropped = reg.counter(
            "ingest.frames_dropped_total",
            "Frames dropped by a full DAQ buffer (drop policy)", buffer=name)
        reg.gauge_fn("ingest.buffer_backlog_bytes",
                     lambda: self._bytes,
                     "Bytes currently staged in the DAQ buffer",
                     unit="bytes", buffer=name)
        # Consumers waiting for a frame, and blocked producers with the
        # frames they still have to place, both FIFO.
        self._waiters: deque[Event] = deque()
        self._blocked: deque[tuple[Event, deque[ImageDescriptor]]] = deque()

    @property
    def backlog_bytes(self) -> float:
        """Bytes currently buffered."""
        return self._bytes

    @property
    def backlog_frames(self) -> int:
        """Frames currently buffered."""
        return len(self._frames)

    # -- producer side --------------------------------------------------------
    def offer(self, frames: Sequence[ImageDescriptor]) -> Optional[Event]:
        """Submit frames in arrival order; a full buffer follows the policy.

        Returns ``None`` once every frame is placed (under the drop policy,
        frames that do not fit are counted in :attr:`dropped` and
        discarded).  Under the block policy, frames that do not fit wait
        behind any producer already blocked, and the returned event fires
        once the last of them is in the buffer.
        """
        self.offered.add(len(frames))
        if self.policy == "drop":
            for frame in frames:
                if self._bytes + frame.size > self.capacity_bytes:
                    self.dropped.add(1)
                else:
                    self._accept(frame)
            return None
        pending = deque(frames)
        if not self._blocked:
            self._admit(pending)
            if not pending:
                return None
        space = self.sim.event(name=f"{self.name}.space")
        self._blocked.append((space, pending))
        return space

    def _admit(self, pending: deque[ImageDescriptor]) -> None:
        while pending and self._bytes + pending[0].size <= self.capacity_bytes:
            self._accept(pending.popleft())

    def _accept(self, frame: ImageDescriptor) -> None:
        self._bytes += frame.size
        self.backlog.set(self.sim.now, self._bytes)
        self._frames.append(frame)
        if self._waiters:
            self._waiters.popleft().succeed()

    # -- consumer side -----------------------------------------------------------
    def wait(self) -> Event:
        """An event that fires when a frame arrives (one waiter per frame,
        FIFO).  Another consumer may pop that frame first, so check
        :attr:`backlog_frames` again after it fires."""
        waiter = self.sim.event(name=f"{self.name}.frame")
        self._waiters.append(waiter)
        return waiter

    def pop(self, max_frames: int) -> list[ImageDescriptor]:
        """Remove and return up to ``max_frames`` of the oldest frames
        (an empty list when the buffer is empty)."""
        frames = self._frames
        batch = [frames.popleft() for _ in range(min(max_frames, len(frames)))]
        if batch:
            for frame in batch:
                self._bytes -= frame.size
            self.backlog.set(self.sim.now, self._bytes)
            self._wake_producers()
        return batch

    def _wake_producers(self) -> None:
        # Place blocked producers' frames in FIFO order *before* waking
        # them, so freed space is claimed once and the capacity holds.
        blocked = self._blocked
        while blocked:
            space, pending = blocked[0]
            self._admit(pending)
            if pending:
                break
            blocked.popleft()
            space.succeed()
