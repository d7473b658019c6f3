"""Tests for the statistics collectors."""

import math

import pytest

from repro.simkit import Counter, Tally, TimeSeries, TimeWeighted


class TestTally:
    def test_empty_stats_are_nan(self):
        t = Tally()
        assert math.isnan(t.mean)
        assert math.isnan(t.std)
        assert math.isnan(t.percentile(50))
        assert t.count == 0
        assert t.total == 0.0

    def test_basic_stats(self):
        t = Tally()
        for v in [1, 2, 3, 4]:
            t.record(v)
        assert t.count == 4
        assert t.mean == 2.5
        assert t.min == 1 and t.max == 4
        assert t.total == 10
        assert t.percentile(50) == 2.5

    def test_summary_keys(self):
        t = Tally("lat")
        t.record(1.0)
        summary = t.summary()
        assert summary["name"] == "lat"
        assert {"count", "mean", "std", "min", "p50", "p95", "p99", "max"} <= set(summary)

    def test_values_is_copy(self):
        t = Tally()
        t.record(1.0)
        arr = t.values()
        arr[0] = 99
        assert t.values()[0] == 1.0


class TestCounter:
    def test_add_and_rate(self):
        c = Counter()
        c.add(10)
        c.add(5)
        assert c.value == 15
        assert c.events == 2
        assert c.rate(5.0) == 3.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Counter().add(-1)

    def test_rate_of_zero_elapsed_is_nan(self):
        c = Counter()
        c.add(1)
        assert math.isnan(c.rate(0.0))


class TestTimeSeries:
    def test_record_and_arrays(self):
        ts = TimeSeries()
        ts.record(0.0, 1.0)
        ts.record(1.0, 2.0)
        t, v = ts.as_arrays()
        assert list(t) == [0.0, 1.0]
        assert list(v) == [1.0, 2.0]
        assert len(ts) == 2

    def test_time_must_be_monotonic(self):
        ts = TimeSeries()
        ts.record(5.0, 1.0)
        with pytest.raises(ValueError):
            ts.record(4.0, 2.0)

    def test_resample_zero_order_hold(self):
        ts = TimeSeries()
        ts.record(0.0, 10.0)
        ts.record(10.0, 20.0)
        out = ts.resample([0.0, 5.0, 10.0, 15.0])
        assert list(out) == [10.0, 10.0, 20.0, 20.0]

    def test_resample_empty_raises(self):
        with pytest.raises(ValueError):
            TimeSeries().resample([0.0])


class TestTimeWeighted:
    def test_time_weighted_mean(self):
        tw = TimeWeighted(t0=0.0, value=0.0)
        tw.set(10.0, 4.0)  # value 0 for 10 s
        tw.set(20.0, 0.0)  # value 4 for 10 s
        assert tw.mean() == pytest.approx(2.0)

    def test_mean_extends_to_until(self):
        tw = TimeWeighted(t0=0.0, value=2.0)
        assert tw.mean(until=10.0) == pytest.approx(2.0)

    def test_add_delta(self):
        tw = TimeWeighted(t0=0.0, value=1.0)
        tw.add(5.0, +2.0)
        assert tw.value == 3.0
        tw.add(10.0, -1.0)
        assert tw.value == 2.0

    def test_max_min_tracked(self):
        tw = TimeWeighted(t0=0.0, value=5.0)
        tw.set(1.0, 9.0)
        tw.set(2.0, 1.0)
        assert tw.max == 9.0
        assert tw.min == 1.0

    def test_non_monotonic_time_rejected(self):
        tw = TimeWeighted(t0=5.0)
        with pytest.raises(ValueError):
            tw.set(4.0, 1.0)

    def test_until_before_last_update_rejected(self):
        tw = TimeWeighted(t0=0.0)
        tw.set(10.0, 1.0)
        with pytest.raises(ValueError):
            tw.mean(until=5.0)
