"""High-throughput microscope workload generator.

Generates the zebrafish screening workload with the paper's shape: a robot
cycles specimens through the microscope 24x7, sweeping acquisition
parameters (well, channel/wavelength, z-plane, timepoint), producing ~4 MB
frames at ~200 k/day.  Frame inter-arrival jitter is lognormal around the
configured rate; frame sizes are normal around the nominal size (compressed
microscopy frames vary slightly).
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
    """

    def __init__(self, sim: Simulator, config: MicroscopeConfig, rng: Optional[RandomSource] = None):
        self.sim = sim
        self.config = config
        self.rng = rng or sim.random.spawn(f"microscope.{config.name}")
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
            :class:`~repro.ingest.daq.DaqBuffer`); the microscope waits
            on a returned event, which a blocking buffer hands out when
            it is full.
        duration:
            Stop after this many simulated seconds.
        max_frames:
            Stop after this many frames.
        """
        return self.sim.process(self._run(sink, duration, max_frames),
                                name=f"microscope:{self.config.name}")

    def _run(self, sink, duration: Optional[float], max_frames: Optional[int]) -> Generator:
        cfg = self.config
        t_end = self.sim.now + duration if duration is not None else float("inf")
        sweep = self._sweep()
        while self.sim.now < t_end:
            if max_frames is not None and self.frames_emitted >= max_frames:
                break
            gap = (
                self.rng.lognormal_mean(cfg.mean_interarrival, cfg.arrival_cv)
                if cfg.arrival_cv > 0
                else cfg.mean_interarrival
            )
            yield self.sim.timeout(gap)
            if self.sim.now >= t_end:
                break
            plate, well, channel, z, timepoint = next(sweep)
            size = max(
                1024,
                int(self.rng.normal(cfg.frame_bytes, cfg.frame_bytes * cfg.size_cv))
                if cfg.size_cv > 0
                else int(cfg.frame_bytes),
            )
            descriptor = ImageDescriptor(
                image_id=f"{cfg.name}-{self.frames_emitted:08d}",
                plate=plate,
                well=well,
                channel=channel,
                wavelength=cfg.base_wavelength + channel * cfg.wavelength_step,
                z_plane=z,
                timepoint=timepoint,
                size=size,
                acquired=self.sim.now,
                microscope=cfg.name,
            )
            self.frames_emitted += 1
            blocked = sink.offer((descriptor,))
            if blocked is not None:
                yield blocked
        return self.frames_emitted
