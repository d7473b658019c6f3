"""Fluid (rate-interval) acquisition: the event-free ingest fast path.

A deterministic microscope — ``arrival_cv == 0`` and ``size_cv == 0`` — is
a *fluid* arrival process: frames arrive at exactly one per
``mean_interarrival`` seconds with a constant size.  Simulating it frame
by frame spends a kernel event per frame (the inter-arrival timeout) on a
process whose trajectory is a straight line.  :class:`FluidAcquisition`
coalesces that line into **rate intervals**: it precomputes a chunk of
consecutive arrivals purely arithmetically, sleeps once until the chunk's
last arrival instant, and hands the whole chunk to the buffer in a single
:meth:`~repro.ingest.daq.DaqBuffer.offer` call.  Discrete events are
materialised only at interval *boundaries* — chunk edges, backpressure
onset (a full buffer blocks the chunk's remaining frames), and whatever
chaos incidents do to the downstream path.

The same frames, later
----------------------
For a deterministic arrival process the *frame stream* is exact:

* Arrival timestamps are accumulated with the same floating-point
  operation order the per-frame loop produces (``t = t + gap``, one add
  per frame — **not** ``start + k * gap``), so every frame's ``acquired``
  field is bit-identical to discrete mode's.
* Sweep parameters, frame sizes, ``image_id`` numbering and the
  offered/dropped counters are computed by the same code paths, so
  frame and byte totals match discrete mode in the absence of
  backpressure, and conservation (offered = ingested + dropped + buffered
  + in-flight) closes under it.

The *timing* is not exact.  A chunk's frames reach the buffer together at
its last arrival instant, so the first frame of a chunk waits up to one
chunk span (``chunk_frames × mean_interarrival``) before any agent can see
it: ingest latency and DAQ backlog grow by up to one chunk span, and
batches are composed differently (so retry outcomes under faults may
differ too).  Stochastic configs are refused at construction: with
``arrival_cv > 0`` the per-frame lognormal draws are the process.  Use
the per-frame :class:`~repro.ingest.microscope.HighThroughputMicroscope`
for those.

The differential suite (``tests/ingest/test_fluid.py``) runs the same
scenario through both modes and asserts equal totals and the one-span
latency bound, plus same-seed trace-fingerprint determinism within each
mode.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.simkit.core import Simulator
from repro.simkit.rand import RandomSource
from repro.ingest.microscope import (
    HighThroughputMicroscope,
    ImageDescriptor,
    MicroscopeConfig,
)


class FluidAcquisition(HighThroughputMicroscope):
    """Rate-interval acquisition source for deterministic microscopes.

    Emits the *same* frames as the per-frame source — same ids, sweep
    parameters, sizes and arrival timestamps — but batched into chunks of
    ``chunk_frames`` so the kernel sees O(frames / chunk) events instead
    of O(frames).

    Parameters
    ----------
    chunk_frames:
        Frames per rate interval.  Larger chunks mean fewer kernel events
        but coarser interleaving with the drain side; 64 keeps the DAQ
        backlog excursion under a quarter-gigabyte at the paper's 4 MB
        frames.
    """

    def __init__(self, sim: Simulator, config: MicroscopeConfig,
                 rng: Optional[RandomSource] = None, chunk_frames: int = 64):
        if config.arrival_cv != 0 or config.size_cv != 0:
            raise ValueError(
                f"FluidAcquisition needs a deterministic config "
                f"(arrival_cv == 0 and size_cv == 0); {config.name!r} has "
                f"arrival_cv={config.arrival_cv} size_cv={config.size_cv}. "
                f"Use HighThroughputMicroscope for stochastic arrivals.")
        if chunk_frames < 1:
            raise ValueError("chunk_frames must be >= 1")
        super().__init__(sim, config, rng)
        self.chunk_frames = int(chunk_frames)
        #: Rate intervals (bulk offers) materialised so far.
        self.intervals_emitted = 0

    def run(self, sink, duration: Optional[float] = None,
            max_frames: Optional[int] = None):
        """Start the acquisition process; the sink is the same as
        :meth:`HighThroughputMicroscope.run`'s, offered a chunk at a time."""
        return self.sim.process(self._run_fluid(sink, duration, max_frames),
                                name=f"microscope:{self.config.name}")

    def _run_fluid(self, sink, duration: Optional[float],
                   max_frames: Optional[int]) -> Generator:
        cfg = self.config
        gap = cfg.mean_interarrival
        size = max(1024, int(cfg.frame_bytes))
        t_end = self.sim.now + duration if duration is not None else float("inf")
        sweep = self._sweep()
        # Sequentially accumulated arrival clock.  The per-frame loop's
        # clock advances by repeated addition (each timeout schedules at
        # ``now + gap``); replaying the identical op order keeps every
        # arrival timestamp bit-identical to discrete mode's.
        t = self.sim.now
        while True:
            batch: list[ImageDescriptor] = []
            while len(batch) < self.chunk_frames:
                if max_frames is not None and self.frames_emitted >= max_frames:
                    break
                t_next = t + gap
                if t_next >= t_end:
                    break
                t = t_next
                plate, well, channel, z, timepoint = next(sweep)
                batch.append(ImageDescriptor(
                    image_id=f"{cfg.name}-{self.frames_emitted:08d}",
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
                self.frames_emitted += 1
            if not batch:
                return self.frames_emitted
            if t > self.sim.now:
                yield self.sim.timeout(t - self.sim.now)
            blocked = sink.offer(batch)
            if blocked is not None:
                yield blocked
            self.intervals_emitted += 1
            if self.sim.now > t:
                # Backpressure stalled the offer past the chunk's last
                # arrival; the robot resumes from the unblock time,
                # exactly as the per-frame loop resumes after a blocking
                # offer.
                t = self.sim.now
