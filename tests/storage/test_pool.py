"""Tests for the storage pool (placement across arrays)."""

import pytest

from repro.storage import DiskArray, PlacementPolicy, StoragePool, StorageError


def _pool(sim, policy=PlacementPolicy.MOST_FREE):
    small = DiskArray(sim, "small", capacity=100.0, bandwidth=100.0, op_overhead=0.0)
    big = DiskArray(sim, "big", capacity=1000.0, bandwidth=100.0, op_overhead=0.0)
    return StoragePool(sim, [small, big], policy=policy), small, big


class TestPlacement:
    def test_empty_pool_rejected(self, sim):
        with pytest.raises(ValueError):
            StoragePool(sim, [])

    def test_most_free_picks_biggest(self, sim):
        pool, _small, big = _pool(sim)
        pool.write("f1", 10.0)
        assert pool.lookup("f1").array == "big"

    def test_least_filled_balances_fraction(self, sim):
        pool, small, big = _pool(sim, PlacementPolicy.LEAST_FILLED)
        big.allocate(500.0)  # big now 50% full, small 0%
        pool.write("f1", 10.0)
        assert pool.lookup("f1").array == "small"

    def test_round_robin_cycles(self, sim):
        pool, _s, _b = _pool(sim, PlacementPolicy.ROUND_ROBIN)
        pool.write("f1", 1.0)
        pool.write("f2", 1.0)
        assert {pool.lookup("f1").array, pool.lookup("f2").array} == {"small", "big"}

    def test_round_robin_skips_full_array(self, sim):
        pool, small, _b = _pool(sim, PlacementPolicy.ROUND_ROBIN)
        small.allocate(100.0)
        for i in range(3):
            pool.write(f"f{i}", 1.0)
        assert all(pool.lookup(f"f{i}").array == "big" for i in range(3))

    def test_no_space_anywhere_raises(self, sim):
        pool, small, big = _pool(sim)
        small.allocate(100.0)
        big.allocate(1000.0)
        with pytest.raises(StorageError):
            pool.write("f1", 1.0)

    def test_file_too_big_for_any_single_array(self, sim):
        pool, _s, _b = _pool(sim)
        with pytest.raises(StorageError):
            pool.write("huge", 1500.0)


class TestCatalog:
    def test_duplicate_id_rejected(self, sim):
        pool, _s, _b = _pool(sim)
        pool.write("f1", 1.0)
        with pytest.raises(StorageError):
            pool.write("f1", 1.0)

    def test_lookup_and_contains(self, sim):
        pool, _s, _b = _pool(sim)
        pool.write("f1", 5.0)
        assert pool.contains("f1")
        record = pool.lookup("f1")
        assert record.size == 5.0
        assert not pool.contains("nope")

    def test_len_and_files(self, sim):
        pool, _s, _b = _pool(sim)
        pool.write("a", 1.0)
        pool.write("b", 1.0)
        assert len(pool) == 2
        assert [f.file_id for f in pool.files()] == ["a", "b"]

    def test_delete_frees_capacity(self, sim):
        pool, _s, big = _pool(sim)
        pool.write("f1", 50.0)
        used = pool.used
        pool.delete("f1")
        assert pool.used == used - 50.0
        assert not pool.contains("f1")

    def test_capacity_aggregates(self, sim):
        pool, _s, _b = _pool(sim)
        assert pool.capacity == 1100.0
        pool.write("f1", 100.0)
        assert pool.used == 100.0
        assert pool.free == 1000.0


class TestIO:
    def test_read_updates_last_access(self, sim):
        pool, _s, _b = _pool(sim)
        pool.write("f1", 10.0)

        def scenario():
            yield sim.timeout(100.0)
            yield pool.read("f1")

        sim.process(scenario())
        sim.run()
        assert pool.lookup("f1").last_access == pytest.approx(100.0)

    def test_read_tape_tier_raises(self, sim):
        pool, _s, _b = _pool(sim)
        pool.write("f1", 10.0)
        pool.lookup("f1").tier = "tape"
        with pytest.raises(StorageError):
            pool.read("f1")

    def test_array_of(self, sim):
        pool, _s, big = _pool(sim)
        pool.write("f1", 10.0)
        assert pool.array_of("f1") is big
        pool.lookup("f1").tier = "tape"
        assert pool.array_of("f1") is None


class TestChooseArray:
    def test_public_choose_matches_write_placement(self, sim):
        pool, _s, big = _pool(sim)
        assert pool.choose_array(10.0) is big
        pool.write("f1", 10.0)
        assert pool.lookup("f1").array == "big"

    def test_exclude_routes_around_named_arrays(self, sim):
        pool, small, big = _pool(sim)
        assert pool.choose_array(10.0, exclude={"big"}) is small
        pool.write("f1", 10.0, exclude={"big"})
        assert pool.lookup("f1").array == "small"

    def test_excluding_everything_raises(self, sim):
        pool, _s, _b = _pool(sim)
        with pytest.raises(StorageError):
            pool.choose_array(10.0, exclude={"small", "big"})

    def test_round_robin_honours_exclusions(self, sim):
        pool, _s, _b = _pool(sim, PlacementPolicy.ROUND_ROBIN)
        for i in range(4):
            pool.write(f"f{i}", 1.0, exclude={"small"})
        assert all(pool.lookup(f"f{i}").array == "big" for i in range(4))


class TestDegraded:
    def test_degraded_array_excluded_from_placement(self, sim):
        pool, small, _b = _pool(sim)
        pool.mark_degraded("big")
        assert pool.degraded == {"big"}
        assert pool.choose_array(10.0) is small

    def test_clear_degraded_restores_and_is_idempotent(self, sim):
        pool, _s, big = _pool(sim)
        pool.mark_degraded("big")
        pool.clear_degraded("big")
        pool.clear_degraded("big")  # idempotent
        assert pool.degraded == set()
        assert pool.choose_array(10.0) is big

    def test_unknown_array_rejected(self, sim):
        pool, _s, _b = _pool(sim)
        with pytest.raises(StorageError):
            pool.mark_degraded("nope")

    def test_degradation_composes_with_exclude(self, sim):
        pool, _s, _b = _pool(sim)
        pool.mark_degraded("big")
        with pytest.raises(StorageError):
            pool.choose_array(10.0, exclude={"small"})
