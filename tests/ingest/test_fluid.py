"""Differential tests: chunked acquisition vs the per-frame loop.

``HighThroughputMicroscope(chunk_frames=N)`` claims the frame stream of
``chunk_frames=1`` (same frames, same ids, bit-identical arrival
timestamps, jittered or not) and exact totals, while latency and backlog
may grow by up to one chunk span.  These tests hold it to that —
frame-stream equality on randomized configs, facility-level total
equality on an E1-shaped scenario with a chaos incident, the one-span
latency bound, same-seed trace fingerprint determinism within each mode,
and conservation (no silent loss) under backpressure in both buffer
policies.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.trace import TraceRecorder
from repro.core.chaos import ChaosSchedule, Incident
from repro.core.facility import FLUID_CHUNK_FRAMES, Facility
from repro.ingest.daq import DaqBuffer
from repro.ingest.microscope import HighThroughputMicroscope, MicroscopeConfig
from repro.simkit import Simulator
from repro.simkit.units import MB
from repro.workloads import zebrafish_microscopes


class _ListSink:
    """A sink recording every offered frame (accepts instantly)."""

    def __init__(self, sim):
        self.sim = sim
        self.frames = []

    def offer(self, frames):
        self.frames.extend(frames)
        return None


def _frame_key(frame):
    return (frame.image_id, frame.acquired, frame.size, frame.plate,
            frame.well, frame.channel, frame.wavelength, frame.z_plane,
            frame.timepoint, frame.microscope)


def _emit(cfg, duration, chunk_frames):
    sim = Simulator(seed=11)
    sink = _ListSink(sim)
    scope = HighThroughputMicroscope(sim, cfg, chunk_frames=chunk_frames)
    scope.run(sink, duration=duration)
    sim.run()
    return scope, sink.frames


# -- exact frame-stream equivalence ----------------------------------------

_cv = st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=1.0))


@given(
    frames_per_day=st.floats(min_value=50.0, max_value=1e5),
    duration=st.floats(min_value=10.0, max_value=3000.0),
    chunk=st.integers(min_value=1, max_value=100),
    arrival_cv=_cv,
    size_cv=_cv,
)
@settings(max_examples=60, deadline=None)
def test_fluid_frames_bit_identical_to_discrete(frames_per_day, duration, chunk,
                                                arrival_cv, size_cv):
    """Every frame — id, sweep parameters, size and the floating-point
    arrival timestamp — is identical between ``chunk_frames=1`` and any
    chunk size, with or without jitter."""
    def cfg():
        return MicroscopeConfig(name="scope-x", frames_per_day=frames_per_day,
                                arrival_cv=arrival_cv, size_cv=size_cv)

    discrete_scope, discrete = _emit(cfg(), duration, chunk_frames=1)
    fluid_scope, fluid = _emit(cfg(), duration, chunk_frames=chunk)
    assert [_frame_key(f) for f in fluid] == [_frame_key(f) for f in discrete]
    assert fluid_scope.frames_emitted == discrete_scope.frames_emitted


def test_fluid_honours_max_frames():
    cfg = MicroscopeConfig(name="scope-m", frames_per_day=86_400.0)
    sim = Simulator()
    sink = _ListSink(sim)
    HighThroughputMicroscope(sim, cfg, chunk_frames=7).run(sink, max_frames=25)
    sim.run()
    assert len(sink.frames) == 25


def test_microscope_rejects_empty_chunks():
    with pytest.raises(ValueError, match="chunk_frames"):
        HighThroughputMicroscope(
            Simulator(), MicroscopeConfig(name="ok"), chunk_frames=0)


# -- facility-level differential (E1-shaped scenario + chaos) ---------------

def _run_facility(fluid: bool, seed: int = 7, trace: bool = False):
    fac = Facility(seed=seed)
    recorder = TraceRecorder().install(fac.sim) if trace else None
    ChaosSchedule([
        Incident(at=60.0, kind="array_degraded",
                 target=(fac.arrays[0].name,), repair_after=60.0),
    ]).run(fac)
    report = fac.simulate_microscopy_day(
        duration=180.0, deterministic=True, chunk_frames=_chunk(fluid))
    return report, recorder


def _chunk(fluid: bool) -> int:
    return FLUID_CHUNK_FRAMES if fluid else 1


def test_fluid_matches_discrete_totals_under_chaos():
    discrete, _ = _run_facility(fluid=False)
    fluid, _ = _run_facility(fluid=True)
    assert fluid.frames_acquired == discrete.frames_acquired
    assert fluid.frames_ingested == discrete.frames_ingested
    assert fluid.frames_dropped == discrete.frames_dropped == 0
    assert fluid.bytes_ingested == discrete.bytes_ingested
    assert fluid.frames_unaccounted == discrete.frames_unaccounted == 0


@pytest.mark.parametrize("fluid", [False, True])
def test_same_seed_fingerprints_identical_within_mode(fluid):
    _, first = _run_facility(fluid=fluid, trace=True)
    _, second = _run_facility(fluid=fluid, trace=True)
    assert len(first) > 0
    assert first.digest() == second.digest()


def test_fluid_chunk_size_does_not_change_totals():
    """On the jittered screen, too."""
    fac_small = Facility(seed=9)
    small = fac_small.simulate_microscopy_day(duration=180.0, chunk_frames=3)
    fac_large = Facility(seed=9)
    large = fac_large.simulate_microscopy_day(duration=180.0, chunk_frames=96)
    assert small.frames_acquired == large.frames_acquired
    assert small.frames_ingested == large.frames_ingested
    assert small.bytes_ingested == large.bytes_ingested
    assert small.frames_unaccounted == large.frames_unaccounted == 0


@pytest.mark.parametrize("fluid", [False, True])
def test_blackout_drill_conserves_frames(fluid):
    """A blackout interrupting in-flight transfers: retry outcomes track
    batch composition (so the two modes may dead-letter different frame
    counts, exactly as different batch_size values would), but the
    conservation law must close exactly and twin runs must agree."""
    def run():
        fac = Facility(seed=11)
        fac.resilience_drill(start=60.0, blackout=45.0).run(fac)
        return fac.simulate_microscopy_day(
            duration=180.0, deterministic=True, chunk_frames=_chunk(fluid))

    first, second = run(), run()
    assert first.frames_acquired > 0
    assert first.frames_unaccounted == 0
    assert first == second


@pytest.mark.parametrize("policy", ["block", "drop"])
def test_fluid_backpressure_conserves_frames(policy):
    """A DAQ buffer an order of magnitude too small: blocking must lose
    nothing; dropping must account for every loss."""
    fac = Facility(seed=5)
    report = fac.simulate_microscopy_day(
        duration=180.0, chunk_frames=FLUID_CHUNK_FRAMES,
        buffer_bytes=40 * MB, buffer_policy=policy)
    assert report.frames_acquired > 0
    assert report.frames_unaccounted == 0
    if policy == "block":
        assert report.frames_dropped == 0
        assert report.frames_ingested == report.frames_acquired


def test_fluid_keeps_totals_and_delays_by_at_most_one_chunk():
    """The chunked contract, on the deterministic and the jittered screen:
    the same totals, but a frame may reach the agents up to one chunk span
    later than per-frame mode.  A chunk's realised span runs from its
    microscope's previous offer (or the start) to its own offer."""
    def chunked(deterministic):
        fac = Facility(seed=7)
        pipeline = fac.ingest_pipeline(
            zebrafish_microscopes(deterministic=deterministic),
            chunk_frames=FLUID_CHUNK_FRAMES)
        offer, spans, last = pipeline.buffer.offer, [], {}
        start = fac.sim.now

        def recording_offer(frames):
            scope = frames[0].microscope
            spans.append(fac.sim.now - last.get(scope, start))
            last[scope] = fac.sim.now
            return offer(frames)

        pipeline.buffer.offer = recording_offer
        return pipeline.run(600.0), max(spans)

    for deterministic in (True, False):
        discrete = Facility(seed=7).simulate_microscopy_day(
            duration=600.0, deterministic=deterministic)
        fluid, span = chunked(deterministic)
        assert fluid.frames_acquired == discrete.frames_acquired > 0
        assert fluid.frames_ingested == discrete.frames_ingested
        assert fluid.bytes_ingested == discrete.bytes_ingested
        assert fluid.frames_unaccounted == discrete.frames_unaccounted == 0
        assert discrete.latency_max < fluid.latency_max <= discrete.latency_max + span


# -- DaqBuffer: one FIFO for single frames and chunks -------------------------

def test_offer_bulk_drop_policy_accounts_per_frame():
    """A chunk offered to a full drop-policy buffer is accounted frame by
    frame: what fits is kept in order, the rest is counted dropped."""
    sim = Simulator()
    buf = DaqBuffer(sim, capacity_bytes=10 * MB, policy="drop", name="d0")
    frames = [_mini_frame(i, size=int(4 * MB)) for i in range(5)]
    assert buf.offer(frames) is None
    assert buf.offered.value == 5
    assert buf.dropped.value == 3  # only two 4 MB frames fit in 10 MB
    assert [f.image_id for f in buf.pop(5)] == ["m-0", "m-1"]


def test_take_bulk_blocks_then_caps_batch():
    """A consumer waits on the empty buffer, wakes when a chunk lands, and
    pops it in batches capped at ``max_frames``."""
    sim = Simulator()
    buf = DaqBuffer(sim, name="d1")
    got = []

    def consumer():
        for _ in range(2):
            while not buf.backlog_frames:
                yield buf.wait()
            got.append((buf.pop(3), sim.now))

    def producer():
        yield sim.timeout(1.0)
        assert buf.offer([_mini_frame(i) for i in range(5)]) is None

    sim.process(consumer())
    sim.process(producer())
    sim.run()
    assert [[f.image_id for f in batch] for batch, _t in got] == [
        [f"m-{i}" for i in range(3)], [f"m-{i}" for i in range(3, 5)]]
    assert [t for _batch, t in got] == [1.0, 1.0]
    assert buf.backlog_frames == 0


def test_mixed_frame_and_chunk_offers_stay_fifo():
    """A single frame offered behind a blocked chunk waits its turn even
    when it would fit on its own."""
    sim = Simulator()
    buf = DaqBuffer(sim, capacity_bytes=10, policy="block", name="d2")
    chunk = [_mini_frame(i, size=4) for i in range(3)]
    chunk_blocked = buf.offer(chunk)  # 4 + 4 fit, the third waits
    single_blocked = buf.offer([_mini_frame(9, size=1)])  # 9 <= 10, waits
    assert chunk_blocked is not None and single_blocked is not None
    assert buf.backlog_frames == 2
    taken = buf.pop(1)
    assert chunk_blocked.triggered and single_blocked.triggered
    taken += buf.pop(10)
    assert [f.image_id for f in taken] == ["m-0", "m-1", "m-2", "m-9"]


def _mini_frame(i, size=1024):
    from repro.ingest.microscope import ImageDescriptor
    return ImageDescriptor(
        image_id=f"m-{i}", plate=0, well="A01", channel=0, wavelength=400,
        z_plane=0, timepoint=0, size=size, acquired=0.0, microscope="m")
