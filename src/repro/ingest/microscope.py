"""High-throughput microscope workload generator.

Generates the zebrafish screening workload with the paper's shape: a robot
cycles specimens through the microscope 24x7, sweeping acquisition
parameters (well, channel/wavelength, z-plane, timepoint), producing ~4 MB
frames at ~200 k/day.  Frame inter-arrival jitter is lognormal around the
configured rate; frame sizes are normal around the nominal size (compressed
microscopy frames vary slightly).

Chunked acquisition
-------------------
``chunk_frames`` frames are drawn at a time and reach the sink in one
``offer``, after one sleep until the chunk's last arrival, so the kernel
sees O(frames / chunk) events instead of O(frames).  The frame stream does
not depend on the chunk size:

* each frame draws its gap, then its size, from the microscope's private
  substream, in the same order at any chunk size;
* the arrival clock advances by ``t = t + gap``, one add per frame, as a
  chain of ``timeout(gap)`` calls does, so every ``acquired`` stamp is
  bit-identical to the per-frame loop's;
* ids, sweep parameters and frame totals follow from the same draws.

Without backpressure the frames and totals are therefore identical for
every chunk size.  The timing is not: a chunk's first frame waits up to
one chunk span before any agent can see it, so ingest latency and DAQ
backlog grow by at most one chunk span, and batches are composed
differently (retry outcomes under faults may differ too).  A blocking
offer resumes the clock from the unblock time, as the per-frame loop
does.  ``chunk_frames=1`` is the per-frame loop, event for event.
``tests/ingest/test_fluid.py`` holds the loop to this contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from repro.simkit.core import Simulator
from repro.simkit.rand import RandomSource
from repro.simkit import units


@dataclass(frozen=True)
class ImageDescriptor:
    """One acquired frame and its acquisition parameters (basic metadata)."""

    image_id: str
    plate: int
    well: str
    channel: int
    wavelength: int
    z_plane: int
    timepoint: int
    size: int
    acquired: float
    microscope: str


@dataclass
class MicroscopeConfig:
    """Acquisition parameters of one instrument.

    Defaults reproduce the paper's numbers: 4 MB frames at 200 k/day
    facility-wide (split across instruments by the caller).
    """

    name: str = "scope-0"
    frame_bytes: float = 4 * units.MB
    frames_per_day: float = 200_000.0
    plates: int = 10
    wells_per_plate: int = 96
    channels: int = 4
    base_wavelength: int = 400
    wavelength_step: int = 40
    z_planes: int = 6
    #: Coefficient of variation of frame inter-arrival times.
    arrival_cv: float = 0.25
    #: Coefficient of variation of frame sizes.
    size_cv: float = 0.05

    def __post_init__(self) -> None:
        if self.frames_per_day <= 0 or self.frame_bytes <= 0:
            raise ValueError("frames_per_day and frame_bytes must be > 0")

    @property
    def mean_interarrival(self) -> float:
        """Mean seconds between frames."""
        return units.DAY / self.frames_per_day

    @property
    def bytes_per_day(self) -> float:
        """Nominal daily data volume."""
        return self.frames_per_day * self.frame_bytes


class HighThroughputMicroscope:
    """Emits :class:`ImageDescriptor` objects into a sink at the configured
    rate.

    The sweep order matches how screening microscopes actually scan: for
    each timepoint, for each plate, for each well, for each z-plane, for
    each channel — so consecutive frames share most parameters (which the
    metadata DB's indexes and the DataBrowser's listings exploit).

    ``chunk_frames`` frames reach the sink per ``offer`` (see the module
    docstring); 1, the default, offers each frame at its arrival.
    """

    def __init__(self, sim: Simulator, config: MicroscopeConfig,
                 rng: Optional[RandomSource] = None, chunk_frames: int = 1):
        if chunk_frames < 1:
            raise ValueError("chunk_frames must be >= 1")
        self.sim = sim
        self.config = config
        self.rng = rng or sim.random.spawn(f"microscope.{config.name}")
        self.chunk_frames = int(chunk_frames)
        self.frames_emitted = 0

    def _sweep(self) -> Generator[tuple[int, str, int, int, int], None, None]:
        cfg = self.config
        timepoint = 0
        while True:
            for plate in range(cfg.plates):
                for well_index in range(cfg.wells_per_plate):
                    well = f"{chr(ord('A') + well_index // 12)}{well_index % 12 + 1:02d}"
                    for z in range(cfg.z_planes):
                        for channel in range(cfg.channels):
                            yield plate, well, channel, z, timepoint
            timepoint += 1

    def run(self, sink, duration: Optional[float] = None, max_frames: Optional[int] = None):
        """Start the acquisition process.

        Parameters
        ----------
        sink:
            An object with ``offer(frames) -> Event | None`` (a
            :class:`~repro.ingest.daq.DaqBuffer`), offered one chunk at
            a time; the microscope waits on a returned event, which a
            blocking buffer hands out when it is full.
        duration:
            Stop after this many simulated seconds.
        max_frames:
            Stop after this many frames.
        """
        return self.sim.process(self._run(sink, duration, max_frames),
                                name=f"microscope:{self.config.name}")

    def _run(self, sink, duration: Optional[float], max_frames: Optional[int]) -> Generator:
        cfg = self.config
        sim = self.sim
        rng = self.rng
        gap_mean, arrival_cv = cfg.mean_interarrival, cfg.arrival_cv
        frame_bytes, size_cv = cfg.frame_bytes, cfg.size_cv
        fixed_size = max(1024, int(frame_bytes))
        t_end = sim.now + duration if duration is not None else float("inf")
        limit = max_frames if max_frames is not None else float("inf")
        sweep = self._sweep()
        t = t_next = sim.now  # the arrival clock
        while t < t_end and self.frames_emitted < limit:
            chunk: list[ImageDescriptor] = []
            n = self.frames_emitted
            stop = n + self.chunk_frames
            if stop > limit:
                stop = limit
            while n < stop:
                gap = (rng.lognormal_mean(gap_mean, arrival_cv)
                       if arrival_cv > 0 else gap_mean)
                t_next = t + gap
                if t_next >= t_end:
                    break
                t = t_next
                plate, well, channel, z, timepoint = next(sweep)
                size = (max(1024, int(rng.normal(frame_bytes, frame_bytes * size_cv)))
                        if size_cv > 0 else fixed_size)
                chunk.append(ImageDescriptor(
                    image_id=f"{cfg.name}-{n:08d}",
                    plate=plate,
                    well=well,
                    channel=channel,
                    wavelength=cfg.base_wavelength + channel * cfg.wavelength_step,
                    z_plane=z,
                    timepoint=timepoint,
                    size=size,
                    acquired=t,
                    microscope=cfg.name,
                ))
                n += 1
            if chunk:
                yield sim.timeout(t - sim.now)
                self.frames_emitted = n
                blocked = sink.offer(chunk)
                if blocked is not None:
                    yield blocked
                    t = sim.now  # the robot resumes from the unblock time
            if t_next >= t_end:
                # The next arrival falls past the end: wait for it, then
                # stop, so acquisition ends at the same instant for every
                # chunk size.
                if t_next > sim.now:
                    yield sim.timeout(t_next - sim.now)
                break
        return self.frames_emitted
