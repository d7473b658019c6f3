"""Integration tests for the full ingest pipeline."""

import hashlib
import json

import pytest

from repro.core import Facility
from repro.simkit.events import Process
from repro.simkit import Simulator
from repro.simkit.units import GB, HOUR, MB, MINUTE
from repro.netsim import Network, build_lsdf_backbone
from repro.storage import DiskArray, StoragePool
from repro.metadata import MetadataStore
from repro.ingest import IngestPipeline, MicroscopeConfig, StorageSink, TransferAgent, DaqBuffer
from repro.workloads import zebrafish_basic_schema, zebrafish_microscopes


def _world(seed=3):
    sim = Simulator(seed=seed)
    topo, names = build_lsdf_backbone()
    net = Network(sim, topo)
    arrays = [
        DiskArray(sim, "ddn", 0.5e15, 3e9),
        DiskArray(sim, "ibm", 1.4e15, 5e9),
    ]
    pool = StoragePool(sim, arrays)
    sink = StorageSink(pool, {"ddn": names.storage[0], "ibm": names.storage[1]})
    store = MetadataStore()
    store.register_project("zebrafish", zebrafish_basic_schema())
    return sim, net, names, pool, sink, store


class TestStorageSink:
    def test_unmapped_array_rejected(self):
        sim, _net, names, pool, _sink, _store = _world()
        with pytest.raises(ValueError):
            StorageSink(pool, {"ddn": names.storage[0]})

    def test_choose_returns_mapped_node(self):
        _sim, _net, names, _pool, sink, _store = _world()
        array, node = sink.choose(100 * MB)
        assert node in names.storage


class TestPipeline:
    def test_short_run_registers_everything(self):
        sim, net, names, pool, sink, store = _world()
        configs = [MicroscopeConfig(name="s0", frames_per_day=50_000.0)]
        pipeline = IngestPipeline(sim, net, names.daq[0], sink, configs,
                                  store=store, agents=2)
        report = pipeline.run(duration=30 * MINUTE)
        assert report.frames_acquired > 0
        assert report.frames_ingested == report.frames_acquired
        assert len(store) == report.frames_ingested
        assert len(pool) == report.frames_ingested
        assert report.frames_dropped == 0
        assert report.latency_mean > 0

    def test_metadata_has_acquisition_parameters(self):
        sim, net, names, _pool, sink, store = _world()
        configs = [MicroscopeConfig(name="s0", frames_per_day=100_000.0)]
        pipeline = IngestPipeline(sim, net, names.daq[0], sink, configs,
                                  store=store, agents=2)
        pipeline.run(duration=5 * MINUTE)
        record = next(iter(store.datasets()))
        for key in ("plate", "well", "channel", "wavelength", "z_plane", "timepoint"):
            assert key in record.basic

    def test_registration_optional(self):
        sim, net, names, pool, sink, _store = _world()
        configs = [MicroscopeConfig(name="s0", frames_per_day=50_000.0)]
        pipeline = IngestPipeline(sim, net, names.daq[0], sink, configs,
                                  store=None, agents=1)
        report = pipeline.run(duration=5 * MINUTE)
        assert report.frames_ingested > 0
        assert len(pool) == report.frames_ingested

    def test_report_rates(self):
        sim, net, names, _pool, sink, store = _world()
        configs = [MicroscopeConfig(name="s0", frames_per_day=48_000.0)]
        pipeline = IngestPipeline(sim, net, names.daq[0], sink, configs,
                                  store=store, agents=2)
        report = pipeline.run(duration=1 * HOUR)
        assert report.frames_per_day == pytest.approx(48_000, rel=0.15)
        assert report.bytes_per_day == pytest.approx(48_000 * 4 * MB, rel=0.15)
        assert len(report.rows()) == 7

    def test_batching_reduces_flow_count(self):
        """With a backlog waiting, a batching agent moves the same frames in
        far fewer network flows."""
        from repro.ingest.microscope import ImageDescriptor

        def run(batch_size):
            sim, net, names, _pool, sink, _store = _world()
            buf = DaqBuffer(sim)
            for i in range(64):  # pre-loaded backlog
                buf.offer([ImageDescriptor(f"i{i}", 0, "A01", 0, 400, 0, 0,
                                           4_000_000, 0.0, "m")])
            agent = TransferAgent(sim, net, buf, names.daq[0], sink,
                                  batch_size=batch_size)
            agent.start()
            sim.run(until=300.0)
            agent.stop()
            assert agent.ingested.value == 64
            return net.flow_durations.count

        assert run(16) <= 64 / 16 + 1
        assert run(1) == 64

    def test_deterministic_report(self):
        def run():
            sim, net, names, _pool, sink, store = _world(seed=77)
            configs = [MicroscopeConfig(name="s0", frames_per_day=20_000.0)]
            pipeline = IngestPipeline(sim, net, names.daq[0], sink, configs,
                                      store=store, agents=2)
            report = pipeline.run(duration=10 * MINUTE)
            return (report.frames_ingested, round(report.latency_mean, 9))

        assert run() == run()


class TestTransferAgent:
    def test_stop_ends_loop(self):
        sim, net, names, _pool, sink, store = _world()
        buf = DaqBuffer(sim)
        agent = TransferAgent(sim, net, buf, names.daq[0], sink, store=None,
                              batch_size=4)
        proc = agent.start()

        from repro.ingest.microscope import ImageDescriptor

        def feed():
            for i in range(8):
                buf.offer([ImageDescriptor(f"i{i}", 0, "A01", 0, 400, 0, 0,
                                           4_000_000, sim.now, "m")])
                yield sim.timeout(1.0)
            agent.stop()
            # One more frame wakes the waiting loop so it can observe stop.
            buf.offer([ImageDescriptor("last", 0, "A01", 0, 400, 0, 0,
                                       4_000_000, sim.now, "m")])

        sim.process(feed())
        sim.run()
        assert not proc.is_alive
        assert agent.ingested.value >= 8

    def test_batch_size_validation(self):
        sim, net, names, _pool, sink, _store = _world()
        buf = DaqBuffer(sim)
        with pytest.raises(ValueError):
            TransferAgent(sim, net, buf, names.daq[0], sink, batch_size=0)


class TestFacilityIngestPath:
    """The per-frame path through a whole :class:`Facility`."""

    # seed -> (sha256 of repr(IngestReport), sha256 of json.dumps(
    # fac.stats(), sort_keys=True), events scheduled, netsim solves, netsim
    # solves skipped), recorded when the DAQ buffer still ran on a simkit
    # Store and every frame took helper processes: the event-chain path
    # must not change a single answer.  The stats pins moved twice since,
    # with the register_dataset WAL layout (only
    # durability.metadata.wal_bytes changed, 18 bytes per record) and with
    # the size-ratio checkpoint (only durability.metadata.snapshots, 4 -> 3,
    # and wal_bytes changed; the stats without them hash as before).  The
    # three counts are exact, so a change that moves the work a run does
    # without moving its answers still shows here.
    _PINS = {
        16: ("3a1dca8ae93a578ac2a15fe73995e309e0044e69dbfd96a53287d36e0031546d",
             "189c292ec47fafdb59b5a37d3cde51103edd59ec6c15b7a04f931ac3b50965df",
             12194, 48, 1080),
        17: ("ea1f762f414139efb3e5814126fbeea71ef09d3b79c094dc4897614bd94f4c38",
             "163e47d1ed2646a148920817c72d31e7fdc435e4557ed6523ed936d5a5c0286c",
             12274, 34, 1095),
        18: ("33db632a4be5afe79c596cf9d23c536fd324313b15536aedfbf3a9d3ca7b41f0",
             "4c1757cc2126d9bfc89d83f205dd05167c54226b5c7024a927186b79f9c3f48e",
             12303, 38, 1095),
    }

    @staticmethod
    def _small(seed):
        """Two jittered scopes at 4x the paper's rate, two agents, no
        backpressure, two simulated minutes."""
        fac = Facility(seed=seed)
        pipeline = fac.ingest_pipeline(
            zebrafish_microscopes(instruments=2, scale=4), agents=2)
        return fac, pipeline

    @pytest.mark.parametrize("seed", [16, 17, 18])
    def test_stochastic_run_is_pinned(self, seed):
        fac, pipeline = self._small(seed)
        report = pipeline.run(duration=120.0)
        assert report.frames_dropped == 0 and report.frames_unaccounted == 0
        digests = tuple(hashlib.sha256(text.encode("utf-8")).hexdigest()
                        for text in (repr(report),
                                     json.dumps(fac.stats(), sort_keys=True)))
        counts = (fac.sim.events_scheduled, int(fac.net.solves.value),
                  int(fac.net.solves_skipped.value))
        assert digests + counts == self._PINS[seed]

    def test_no_process_per_frame(self, monkeypatch):
        """Without backpressure the only processes are the microscopes' and
        the agents' loops: buffer hand-offs, batches and disk I/O are
        plain events."""
        fac, pipeline = self._small(16)
        started = []
        init = Process.__init__

        def counting(process, sim, generator, name=None):
            started.append(name)
            init(process, sim, generator, name)

        monkeypatch.setattr(Process, "__init__", counting)
        report = pipeline.run(duration=120.0)
        assert report.frames_acquired > 1000
        assert len(started) == len(pipeline.microscopes) + len(pipeline.agents)

    def test_blocking_buffer_peak_stays_within_capacity(self):
        """Four scopes at 40x the paper's rate into one agent through a
        10 MB blocking buffer: however many scopes wait, a freed slot is
        claimed once, so the backlog never exceeds the buffer."""
        fac = Facility(seed=16)
        pipeline = fac.ingest_pipeline(
            zebrafish_microscopes(instruments=4, scale=40), agents=1,
            buffer_bytes=10 * MB, buffer_policy="block")
        report = pipeline.run(duration=30.0)
        assert report.frames_acquired > 1000
        assert report.frames_unaccounted == 0
        assert report.backlog_peak_bytes <= 10 * MB
