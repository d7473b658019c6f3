"""Statistics collection for simulations and benchmarks.

Four collectors cover the reporting needs of the whole reproduction:

:class:`Tally`
    Un-timed samples (latencies, sizes) with mean/std/percentiles.
:class:`Counter`
    Monotonic counts and sums (bytes moved, jobs finished).
:class:`TimeSeries`
    Explicit ``(t, value)`` samples for plotting-style output.
:class:`TimeWeighted`
    A piecewise-constant signal (queue length, utilisation) whose mean is
    weighted by how long each value was held.
"""

from __future__ import annotations

import bisect
import math
from typing import Optional, Sequence

from repro._lazy import optional_numpy


def _percentile(samples: list[float], q: float) -> float:
    """Pure-python linear-interpolation percentile (numpy's default
    method), used when numpy is not installed."""
    data = sorted(samples)
    if len(data) == 1:
        return data[0]
    rank = (q / 100.0) * (len(data) - 1)
    lo = int(math.floor(rank))
    hi = min(lo + 1, len(data) - 1)
    frac = rank - lo
    return data[lo] + (data[hi] - data[lo]) * frac


class Tally:
    """Accumulates unweighted samples and reports summary statistics."""

    def __init__(self, name: str = "tally"):
        self.name = name
        self._samples: list[float] = []

    def record(self, value: float) -> None:
        """Add one sample."""
        self._samples.append(float(value))

    @property
    def count(self) -> int:
        """Number of samples recorded."""
        return len(self._samples)

    @property
    def mean(self) -> float:
        """Sample mean (NaN when empty)."""
        if not self._samples:
            return math.nan
        np = optional_numpy()
        if np is not None:
            return float(np.mean(self._samples))
        return math.fsum(self._samples) / len(self._samples)

    @property
    def std(self) -> float:
        """Sample standard deviation (ddof=0; NaN when empty)."""
        if not self._samples:
            return math.nan
        np = optional_numpy()
        if np is not None:
            return float(np.std(self._samples))
        mean = self.mean
        return math.sqrt(
            math.fsum((v - mean) ** 2 for v in self._samples)
            / len(self._samples))

    @property
    def min(self) -> float:
        """Smallest sample (NaN when empty)."""
        if not self._samples:
            return math.nan
        np = optional_numpy()
        return float(np.min(self._samples)) if np is not None else min(self._samples)

    @property
    def max(self) -> float:
        """Largest sample (NaN when empty)."""
        if not self._samples:
            return math.nan
        np = optional_numpy()
        return float(np.max(self._samples)) if np is not None else max(self._samples)

    @property
    def total(self) -> float:
        """Sum of all samples."""
        if not self._samples:
            return 0.0
        np = optional_numpy()
        return float(np.sum(self._samples)) if np is not None else math.fsum(self._samples)

    def percentile(self, q: float) -> float:
        """The q-th percentile (0..100) of the samples (NaN when empty)."""
        if not self._samples:
            return math.nan
        np = optional_numpy()
        if np is not None:
            return float(np.percentile(self._samples, q))
        return _percentile(self._samples, q)

    def values(self):
        """All samples as an array (copy; a plain list without numpy)."""
        np = optional_numpy()
        if np is not None:
            return np.asarray(self._samples, dtype=float)
        return [float(v) for v in self._samples]

    def summary(self) -> dict:
        """Dict of the headline statistics."""
        return {
            "name": self.name,
            "count": self.count,
            "mean": self.mean,
            "std": self.std,
            "min": self.min,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "max": self.max,
        }

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Tally {self.name} n={self.count} mean={self.mean:.4g}>"


class Counter:
    """A named monotonic accumulator."""

    def __init__(self, name: str = "counter"):
        self.name = name
        self.value = 0.0
        self.events = 0

    def add(self, amount: float = 1.0) -> None:
        """Increment by ``amount`` (must be >= 0)."""
        if amount < 0:
            raise ValueError("Counter.add amount must be >= 0")
        self.value += amount
        self.events += 1

    def rate(self, elapsed: float) -> float:
        """Average accumulation rate over ``elapsed`` seconds."""
        return self.value / elapsed if elapsed > 0 else math.nan

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Counter {self.name} value={self.value:.6g} events={self.events}>"


class TimeSeries:
    """Explicit ``(t, value)`` samples, e.g. for queue-depth plots."""

    def __init__(self, name: str = "series"):
        self.name = name
        self.times: list[float] = []
        self.values: list[float] = []

    def record(self, t: float, value: float) -> None:
        """Append one sample; times must be non-decreasing."""
        if self.times and t < self.times[-1]:
            raise ValueError("TimeSeries samples must have non-decreasing time")
        self.times.append(float(t))
        self.values.append(float(value))

    def __len__(self) -> int:
        return len(self.times)

    def as_arrays(self):
        """``(times, values)`` as numpy arrays (copies; lists without numpy)."""
        np = optional_numpy()
        if np is not None:
            return (np.asarray(self.times, dtype=float),
                    np.asarray(self.values, dtype=float))
        return list(self.times), list(self.values)

    def resample(self, times: Sequence[float]):
        """Zero-order-hold resample at the requested times."""
        if not self.times:
            raise ValueError("resample of empty TimeSeries")
        np = optional_numpy()
        if np is not None:
            src_t, src_v = self.as_arrays()
            idx = np.searchsorted(src_t, np.asarray(times, dtype=float),
                                  side="right") - 1
            idx = np.clip(idx, 0, len(src_v) - 1)
            return src_v[idx]
        out = []
        for t in times:
            i = bisect.bisect_right(self.times, float(t)) - 1
            out.append(self.values[max(0, min(i, len(self.values) - 1))])
        return out


class TimeWeighted:
    """A piecewise-constant signal with time-weighted statistics.

    Typical use: track a queue length — call :meth:`set` whenever the value
    changes; :meth:`mean` then gives the *time-averaged* queue length.  It
    keeps no history, so its memory does not grow with simulated time; a
    plot samples it into a :class:`TimeSeries`.
    """

    def __init__(self, t0: float = 0.0, value: float = 0.0, name: str = "level"):
        self.name = name
        self._last_t = float(t0)
        self._value = float(value)
        self._weighted_sum = 0.0
        self._elapsed = 0.0
        self._max = float(value)
        self._min = float(value)

    @property
    def value(self) -> float:
        """Current value of the signal."""
        return self._value

    def set(self, t: float, value: float) -> None:
        """Record that the signal changed to ``value`` at time ``t``."""
        if t < self._last_t:
            raise ValueError("TimeWeighted updates must have non-decreasing time")
        dt = t - self._last_t
        self._weighted_sum += self._value * dt
        self._elapsed += dt
        self._last_t = t
        self._value = float(value)
        self._max = max(self._max, self._value)
        self._min = min(self._min, self._value)

    def add(self, t: float, delta: float) -> None:
        """Shift the signal by ``delta`` at time ``t``."""
        self.set(t, self._value + delta)

    def mean(self, until: Optional[float] = None) -> float:
        """Time-weighted mean, optionally extending the last value to ``until``."""
        weighted, elapsed = self._weighted_sum, self._elapsed
        if until is not None:
            if until < self._last_t:
                raise ValueError("until precedes the last update")
            weighted += self._value * (until - self._last_t)
            elapsed += until - self._last_t
        return weighted / elapsed if elapsed > 0 else self._value

    @property
    def max(self) -> float:
        """Largest value ever held."""
        return self._max

    @property
    def min(self) -> float:
        """Smallest value ever held."""
        return self._min
