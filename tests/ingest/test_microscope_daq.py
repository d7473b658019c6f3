"""Tests for the microscope generator and DAQ buffer."""

import pytest

from repro.simkit import Simulator
from repro.simkit.units import DAY, HOUR, MB
from repro.ingest import DaqBuffer, HighThroughputMicroscope, MicroscopeConfig


class _ListSink:
    """Captures offered frames without any buffering semantics."""

    def __init__(self, sim):
        self.sim = sim
        self.frames = []

    def offer(self, frames):
        self.frames.extend(frames)
        return None


class TestMicroscope:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            MicroscopeConfig(frames_per_day=0)

    def test_rate_matches_config(self):
        sim = Simulator(seed=5)
        config = MicroscopeConfig(frames_per_day=24_000.0, arrival_cv=0.2)
        scope = HighThroughputMicroscope(sim, config)
        sink = _ListSink(sim)
        scope.run(sink, duration=1 * HOUR)
        sim.run()
        # 1000 frames/hour expected; allow 10% statistical slack.
        assert len(sink.frames) == pytest.approx(1000, rel=0.1)

    def test_max_frames_cap(self):
        sim = Simulator(seed=5)
        scope = HighThroughputMicroscope(sim, MicroscopeConfig(frames_per_day=1e6))
        sink = _ListSink(sim)
        proc = scope.run(sink, max_frames=50)
        sim.run()
        assert proc.value == 50
        assert len(sink.frames) == 50

    def test_sweep_covers_parameters(self):
        sim = Simulator(seed=5)
        config = MicroscopeConfig(frames_per_day=1e7, plates=2, wells_per_plate=2,
                                  channels=2, z_planes=2)
        scope = HighThroughputMicroscope(sim, config)
        sink = _ListSink(sim)
        scope.run(sink, max_frames=16)
        sim.run()
        frames = sink.frames
        # Full sweep: 2 plates x 2 wells x 2 z x 2 channels = 16 frames, all
        # distinct parameter combos, timepoint 0.
        combos = {(f.plate, f.well, f.z_plane, f.channel) for f in frames}
        assert len(combos) == 16
        assert all(f.timepoint == 0 for f in frames)

    def test_timepoint_increments_after_sweep(self):
        sim = Simulator(seed=5)
        config = MicroscopeConfig(frames_per_day=1e7, plates=1, wells_per_plate=1,
                                  channels=1, z_planes=1)
        scope = HighThroughputMicroscope(sim, config)
        sink = _ListSink(sim)
        scope.run(sink, max_frames=3)
        sim.run()
        assert [f.timepoint for f in sink.frames] == [0, 1, 2]

    def test_frame_sizes_near_nominal(self):
        sim = Simulator(seed=5)
        config = MicroscopeConfig(frames_per_day=1e6, size_cv=0.05)
        scope = HighThroughputMicroscope(sim, config)
        sink = _ListSink(sim)
        scope.run(sink, max_frames=200)
        sim.run()
        from statistics import fmean

        assert fmean(f.size for f in sink.frames) == pytest.approx(
            4 * MB, rel=0.05)

    def test_wavelength_derived_from_channel(self):
        sim = Simulator(seed=5)
        config = MicroscopeConfig(frames_per_day=1e6, base_wavelength=400,
                                  wavelength_step=50)
        scope = HighThroughputMicroscope(sim, config)
        sink = _ListSink(sim)
        scope.run(sink, max_frames=8)
        sim.run()
        for frame in sink.frames:
            assert frame.wavelength == 400 + frame.channel * 50

    def test_deterministic(self):
        def run():
            sim = Simulator(seed=42)
            scope = HighThroughputMicroscope(sim, MicroscopeConfig(frames_per_day=1e5))
            sink = _ListSink(sim)
            scope.run(sink, max_frames=20)
            sim.run()
            return [(f.image_id, round(f.acquired, 9), f.size) for f in sink.frames]

        assert run() == run()


class TestDaqBuffer:
    def _frame(self, sim, size=100, image_id="f"):
        from repro.ingest.microscope import ImageDescriptor

        return ImageDescriptor(image_id, 0, "A01", 0, 400, 0, 0, size, sim.now, "m")

    def test_policy_validation(self, sim):
        with pytest.raises(ValueError):
            DaqBuffer(sim, policy="explode")

    def test_offer_take_fifo(self, sim):
        buf = DaqBuffer(sim)

        def consumer():
            while not buf.backlog_frames:
                yield buf.wait()
            first = buf.pop(1)
            return [f.size for f in first + buf.pop(5)], sim.now

        def producer():
            yield sim.timeout(2.0)
            for i in range(3):
                assert buf.offer([self._frame(sim, size=i + 1)]) is None

        p = sim.process(consumer())
        sim.process(producer())
        sim.run()
        assert p.value == ([1, 2, 3], 2.0)
        assert buf.backlog_bytes == 0
        assert buf.pop(5) == []

    def test_block_policy_blocks_producer(self, sim):
        buf = DaqBuffer(sim, capacity_bytes=150, policy="block")

        def producer():
            assert buf.offer([self._frame(sim, 100)]) is None
            blocked = buf.offer([self._frame(sim, 100)])  # 200 > 150
            assert blocked is not None
            yield blocked
            return sim.now

        def consumer():
            yield sim.timeout(10.0)
            buf.pop(1)

        p = sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert p.value == 10.0
        assert buf.dropped.value == 0
        assert buf.backlog_bytes == 100  # the blocked frame is in

    def test_drop_policy_drops(self, sim):
        buf = DaqBuffer(sim, capacity_bytes=150, policy="drop")
        assert buf.offer([self._frame(sim, 100)]) is None
        assert buf.offer([self._frame(sim, 100)]) is None
        assert buf.offered.value == 2
        assert buf.dropped.value == 1
        assert buf.backlog_frames == 1

    def test_backlog_time_weighted(self, sim):
        buf = DaqBuffer(sim)

        def scenario():
            buf.offer([self._frame(sim, 100)])
            yield sim.timeout(10.0)
            buf.pop(1)
            yield sim.timeout(10.0)

        sim.process(scenario())
        sim.run()
        assert buf.backlog.max == 100
        assert buf.backlog.mean(sim.now) == pytest.approx(50.0)

    def test_one_waiter_woken_per_accepted_frame(self, sim):
        buf = DaqBuffer(sim)
        waiters = [buf.wait() for _ in range(3)]
        assert buf.offer([self._frame(sim), self._frame(sim)]) is None
        assert [w.triggered for w in waiters] == [True, True, False]

    def test_blocked_producers_never_overfill_and_stay_fifo(self, sim):
        """Four producers blocked on a 10 MB buffer of 4 MB frames, one
        frame freed per second: each freed slot admits exactly one waiting
        frame, so the backlog never exceeds the capacity, and frames leave
        in the order they were offered."""
        buf = DaqBuffer(sim, capacity_bytes=10 * MB, policy="block")
        offered, taken = [], []

        def producer(p):
            for i in range(5):
                frame = self._frame(sim, 4 * MB, f"p{p}-{i}")
                offered.append(frame.image_id)
                blocked = buf.offer([frame])
                if blocked is not None:
                    yield blocked

        def consumer():
            while len(taken) < 20:
                yield sim.timeout(1.0)
                taken.extend(f.image_id for f in buf.pop(1))

        for p in range(4):
            sim.process(producer(p))
        sim.process(consumer())
        sim.run()
        assert buf.backlog.max <= 10 * MB
        assert taken == offered
