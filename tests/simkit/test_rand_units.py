"""Tests for random streams and unit helpers."""

from statistics import fmean

import pytest

from repro.simkit import RandomSource
from repro.simkit import units


class TestRandomSource:
    def test_same_seed_same_draws(self):
        a = RandomSource(7)
        b = RandomSource(7)
        assert [a.uniform() for _ in range(5)] == [b.uniform() for _ in range(5)]

    def test_different_seeds_differ(self):
        assert RandomSource(1).uniform() != RandomSource(2).uniform()

    def test_spawn_independent_of_creation_order(self):
        a = RandomSource(7)
        b = RandomSource(7)
        # Request streams in different orders.
        a_net = a.spawn("net")
        _a_disk = a.spawn("disk")
        _b_disk = b.spawn("disk")
        b_net = b.spawn("net")
        assert a_net.uniform() == b_net.uniform()

    def test_spawn_same_name_returns_same_stream(self):
        root = RandomSource(0)
        assert root.spawn("x") is root.spawn("x")

    def test_spawned_streams_distinct(self):
        root = RandomSource(0)
        assert root.spawn("a").uniform() != root.spawn("b").uniform()

    def test_spawn_prefix_sharing_names_not_correlated(self):
        # Regression: the substream key once hashed only the first 8 bytes
        # of the name, collapsing every "straggler.*" (etc.) substream onto
        # one stream and silently correlating draws the model treats as
        # independent.
        root = RandomSource(7)
        draws = {
            root.spawn(f"straggler.m{i:04d}@node-{i % 3}").uniform()
            for i in range(16)
        }
        assert len(draws) == 16

    def test_spawn_depends_on_parent_seed(self):
        a = RandomSource(5).spawn("component.substream")
        b = RandomSource(11).spawn("component.substream")
        assert a.uniform() != b.uniform()

    def test_exponential_mean(self):
        rng = RandomSource(3)
        samples = [rng.exponential(10.0) for _ in range(4000)]
        assert fmean(samples) == pytest.approx(10.0, rel=0.1)

    def test_lognormal_mean_parameterisation(self):
        rng = RandomSource(4)
        samples = [rng.lognormal_mean(5.0, 0.3) for _ in range(4000)]
        assert fmean(samples) == pytest.approx(5.0, rel=0.1)

    def test_lognormal_mean_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            RandomSource(0).lognormal_mean(0.0, 0.5)

    def test_choice_and_empty(self):
        rng = RandomSource(5)
        assert rng.choice([42]) == 42
        with pytest.raises(ValueError):
            rng.choice([])

    def test_integers_range(self):
        rng = RandomSource(6)
        draws = {rng.integers(0, 3) for _ in range(100)}
        assert draws == {0, 1, 2}

    def test_pareto_bounded_within_bounds(self):
        rng = RandomSource(7)
        for _ in range(200):
            x = rng.pareto_bounded(1.2, 10.0, 1000.0)
            assert 10.0 <= x <= 1000.0

    def test_pareto_bounded_validation(self):
        with pytest.raises(ValueError):
            RandomSource(0).pareto_bounded(1.0, 10.0, 5.0)

    @pytest.mark.parametrize("draw, args", [
        ("exponential", (-1.0,)),
        ("normal", (0.0, -1.0)),
        ("pareto_bounded", (0.0, 1.0, 2.0)),
        ("pareto_bounded", (-1.2, 1.0, 2.0)),
    ])
    def test_invalid_parameters_raise_value_error(self, draw, args):
        with pytest.raises(ValueError):
            getattr(RandomSource(0), draw)(*args)

    def test_degenerate_parameters_are_allowed(self):
        rng = RandomSource(0)
        assert rng.exponential(0.0) == 0.0
        assert rng.normal(3.0, 0.0) == 3.0

    def test_shuffle_is_permutation(self):
        rng = RandomSource(8)
        data = list(range(20))
        shuffled = rng.shuffle(list(data))
        assert sorted(shuffled) == data


class TestUnits:
    def test_byte_multiples(self):
        assert units.TB == 10**12
        assert units.PB == 1000 * units.TB
        assert units.MiB == 2**20

    def test_gbit_per_s(self):
        assert units.gbit_per_s(10) == 1.25e9
        assert units.mbit_per_s(100) == 12.5e6

    def test_fmt_bytes(self):
        assert units.fmt_bytes(2e12) == "2.00 TB"
        assert units.fmt_bytes(500) == "500 B"
        assert units.fmt_bytes(3.5e15) == "3.50 PB"

    def test_fmt_rate(self):
        assert units.fmt_rate(1.25e9) == "1.25 GB/s"

    def test_fmt_duration(self):
        assert units.fmt_duration(0.5) == "500.0 ms"
        assert units.fmt_duration(30) == "30.0 s"
        assert units.fmt_duration(90061) == "1d 1h 1m 1s"
        assert units.fmt_duration(3600) == "1h"

    def test_fmt_duration_negative(self):
        assert units.fmt_duration(-30) == "-30.0 s"
