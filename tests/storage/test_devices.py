"""Tests for the disk-array model."""

import pytest

from repro.storage import DiskArray, StorageError


@pytest.fixture
def array(sim):
    return DiskArray(sim, "ddn", capacity=1000.0, bandwidth=100.0, op_overhead=0.5)


class TestCapacity:
    def test_validation(self, sim):
        with pytest.raises(ValueError):
            DiskArray(sim, "x", capacity=0.0, bandwidth=1.0)
        with pytest.raises(ValueError):
            DiskArray(sim, "x", capacity=1.0, bandwidth=1.0, op_overhead=-1.0)

    def test_allocate_release(self, array):
        array.allocate(400.0)
        assert array.used == 400.0
        assert array.free == 600.0
        assert array.fill_fraction == pytest.approx(0.4)
        array.release(150.0)
        assert array.used == 250.0

    def test_over_allocation_raises(self, array):
        array.allocate(900.0)
        with pytest.raises(StorageError):
            array.allocate(200.0)

    def test_over_release_raises(self, array):
        with pytest.raises(StorageError):
            array.release(1.0)

    def test_write_allocates(self, sim, array):
        array.write(300.0)
        assert array.used == 300.0
        sim.run()
        assert array.bytes_written.value == 300.0

    def test_write_to_full_array_raises_immediately(self, sim, array):
        array.allocate(1000.0)
        with pytest.raises(StorageError):
            array.write(1.0)

    def test_delete_frees(self, sim, array):
        array.write(300.0)
        sim.run()
        array.delete(300.0)
        assert array.used == 0.0


class TestTiming:
    def test_write_duration_includes_overhead(self, sim, array):
        ev = array.write(100.0)
        sim.run()
        # 0.5 s overhead + 1 s streaming.
        assert ev.value == pytest.approx(1.5)

    def test_concurrent_ops_share_bandwidth(self, sim, array):
        a = array.read(100.0)
        b = array.read(100.0)
        sim.run()
        # overhead in parallel, then both at 50 B/s.
        assert a.value == pytest.approx(2.5)
        assert b.value == pytest.approx(2.5)

    def test_zero_overhead_device(self, sim):
        fast = DiskArray(sim, "nvme", capacity=100.0, bandwidth=100.0, op_overhead=0.0)
        ev = fast.read(100.0)
        sim.run()
        assert ev.value == pytest.approx(1.0)

    def test_op_latency_tally(self, sim, array):
        array.read(100.0)
        array.write(100.0)
        sim.run()
        assert array.op_latency.count == 2

    def test_events_carry_op_latency_without_processes(self, sim, array):
        """Read and write events fire with overhead + service time as their
        value, the same figure the latency summary records, and no process
        runs behind them."""
        read = array.read(100.0)
        write = array.write(50.0)
        empty = array.write(0.0)
        assert not sim._processes
        sim.run()
        # 0.5 s overhead, then 150 B shared at 100 B/s: the 50 B write is
        # done at 1.5 s, the read gets the whole array for its last 50 B.
        assert write.value == pytest.approx(1.5)
        assert read.value == pytest.approx(2.0)
        assert empty.value == pytest.approx(0.5)
        assert sorted(array.op_latency.values()) == pytest.approx(
            [0.5, 1.5, 2.0])
        assert array.bytes_read.value == 100.0
        assert array.bytes_written.value == 50.0

    def test_effective_rate(self, sim, array):
        array.write(100.0)
        array.read(100.0)
        sim.run()
        assert array.effective_rate(10.0) == pytest.approx(20.0)
