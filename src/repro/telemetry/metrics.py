"""The metrics registry: labelled instruments under stable names.

A :class:`MetricsRegistry` owns one :class:`MetricFamily` per metric name;
a family owns one instrument per label set (get-or-create, Prometheus
style).  Four instrument kinds cover the reproduction's needs:

:class:`Counter`
    Monotonic counts and sums — API-compatible with
    :class:`repro.simkit.monitor.Counter` (``add``/``value``/``events``/
    ``rate``) so subsystem migration is a drop-in.
:class:`Gauge`
    A settable level, or a *callback* gauge reading live object state
    (pool fill, DLQ depth, breaker state) at collection time.
:class:`Histogram`
    Fixed-bucket distribution (cumulative bucket counts, sum, count).
:class:`Summary`
    Exact-sample distribution backed by
    :class:`repro.simkit.monitor.Tally` — keeps the mean/percentile
    queries the reports and benches already rely on.

A registry built with ``enabled=False`` turns every mutation into a no-op
(the E15 ablation arm); values stay readable as zeros and callback gauges
still reflect live state.
"""

from __future__ import annotations

import math
import re
from typing import Callable, Iterable, Optional

from repro.simkit.monitor import Tally

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"
SUMMARY = "summary"

_KINDS = (COUNTER, GAUGE, HISTOGRAM, SUMMARY)

#: Default duration buckets (seconds) — spans sub-ms op overheads to the
#: multi-hour horizons of tape recalls and scrub passes.
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 15.0, 60.0,
    300.0, 1800.0, 7200.0, 43200.0,
)

_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)*$")
_LABEL_RE = re.compile(r"^[a-z][a-z0-9_]*$")


class MetricError(Exception):
    """Registry misuse: bad names, kind clashes, label-set mismatches."""


class Instrument:
    """One (family, label set) time series."""

    __slots__ = ("family", "labels", "_on")

    def __init__(self, family: "MetricFamily", labels: dict[str, str]):
        self.family = family
        self.labels = labels
        self._on = family.registry.enabled

    @property
    def name(self) -> str:
        """The owning family's metric name."""
        return self.family.name

    def _label_suffix(self) -> str:
        if not self.labels:
            return ""
        inner = ",".join(f"{k}={v!r}" for k, v in sorted(self.labels.items()))
        return "{" + inner + "}"

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} {self.name}{self._label_suffix()}>"


class Counter(Instrument):
    """A labelled monotonic accumulator."""

    __slots__ = ("value", "events")

    def __init__(self, family: "MetricFamily", labels: dict[str, str]):
        super().__init__(family, labels)
        self.value = 0.0
        self.events = 0

    def add(self, amount: float = 1.0) -> None:
        """Increment by ``amount`` (must be >= 0).

        The disabled check comes first so a disabled registry pays a single
        attribute test per call; negative increments still raise whether or
        not the registry is enabled.
        """
        if self._on:
            if amount < 0:
                raise MetricError(f"{self.name}: counter increments must be >= 0")
            self.value += amount
            self.events += 1
        elif amount < 0:
            raise MetricError(f"{self.name}: counter increments must be >= 0")

    def rate(self, elapsed: float) -> float:
        """Average accumulation rate over ``elapsed`` seconds."""
        return self.value / elapsed if elapsed > 0 else math.nan


class Gauge(Instrument):
    """A labelled level — directly set, or backed by a live callback."""

    __slots__ = ("_value", "_fn")

    def __init__(self, family: "MetricFamily", labels: dict[str, str]):
        super().__init__(family, labels)
        self._value = 0.0
        self._fn: Optional[Callable[[], float]] = None

    @property
    def value(self) -> float:
        """Current level (callback gauges read live state)."""
        if self._fn is not None:
            return float(self._fn())
        return self._value

    def set(self, value: float) -> None:
        """Set the level (direct gauges only)."""
        if self._fn is not None:
            raise MetricError(f"{self.name}: cannot set a callback gauge")
        if self._on:
            self._value = float(value)

    def add(self, delta: float) -> None:
        """Shift the level by ``delta`` (direct gauges only)."""
        if self._fn is not None:
            raise MetricError(f"{self.name}: cannot add to a callback gauge")
        if self._on:
            self._value += float(delta)

    def set_fn(self, fn: Callable[[], float]) -> None:
        """Back this gauge with a zero-argument live-state callback."""
        self._fn = fn


class Histogram(Instrument):
    """Fixed-bucket distribution: per-bucket counts plus sum/count."""

    __slots__ = ("buckets", "bucket_counts", "count", "sum", "_min", "_max")

    def __init__(self, family: "MetricFamily", labels: dict[str, str]):
        super().__init__(family, labels)
        self.buckets: tuple[float, ...] = family.buckets
        self.bucket_counts = [0] * (len(self.buckets) + 1)  # +1 for +Inf
        self.count = 0
        self.sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, value: float) -> None:
        """Record one observation."""
        if not self._on:
            return
        value = float(value)
        self.count += 1
        self.sum += value
        self._min = min(self._min, value)
        self._max = max(self._max, value)
        for index, upper in enumerate(self.buckets):
            if value <= upper:
                self.bucket_counts[index] += 1
                return
        self.bucket_counts[-1] += 1

    @property
    def mean(self) -> float:
        """Mean of all observations (NaN when empty)."""
        return self.sum / self.count if self.count else math.nan

    @property
    def min(self) -> float:
        """Smallest observation (NaN when empty)."""
        return self._min if self.count else math.nan

    @property
    def max(self) -> float:
        """Largest observation (NaN when empty)."""
        return self._max if self.count else math.nan

    def cumulative(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` rows, ending at +Inf."""
        out: list[tuple[float, int]] = []
        running = 0
        for upper, n in zip(self.buckets, self.bucket_counts):
            running += n
            out.append((upper, running))
        out.append((math.inf, running + self.bucket_counts[-1]))
        return out


class Summary(Instrument):
    """Exact-sample distribution (Tally-backed): mean, std, percentiles."""

    __slots__ = ("_tally",)

    def __init__(self, family: "MetricFamily", labels: dict[str, str]):
        super().__init__(family, labels)
        self._tally = Tally(name=family.name)

    def record(self, value: float) -> None:
        """Add one sample."""
        if self._on:
            self._tally.record(value)

    # Pass-through statistics (the monitor.Tally read API).
    @property
    def count(self) -> int:
        """Number of samples recorded."""
        return self._tally.count

    @property
    def mean(self) -> float:
        """Sample mean (NaN when empty)."""
        return self._tally.mean

    @property
    def std(self) -> float:
        """Sample standard deviation (NaN when empty)."""
        return self._tally.std

    @property
    def min(self) -> float:
        """Smallest sample (NaN when empty)."""
        return self._tally.min

    @property
    def max(self) -> float:
        """Largest sample (NaN when empty)."""
        return self._tally.max

    @property
    def total(self) -> float:
        """Sum of all samples."""
        return self._tally.total

    def percentile(self, q: float) -> float:
        """The q-th percentile (0..100) of the samples (NaN when empty)."""
        return self._tally.percentile(q)

    def values(self) -> list[float]:
        """All samples as a list (a copy)."""
        return self._tally.values()


_INSTRUMENTS = {
    COUNTER: Counter,
    GAUGE: Gauge,
    HISTOGRAM: Histogram,
    SUMMARY: Summary,
}


class MetricFamily:
    """All instruments sharing one metric name (one per label set)."""

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        kind: str,
        help: str = "",
        unit: str = "",
        buckets: Optional[Iterable[float]] = None,
    ):
        self.registry = registry
        self.name = name
        self.kind = kind
        self.help = help
        self.unit = unit
        self.buckets: tuple[float, ...] = tuple(
            sorted(buckets) if buckets is not None else DEFAULT_BUCKETS
        )
        self._label_names: Optional[tuple[str, ...]] = None
        self._children: dict[tuple[tuple[str, str], ...], Instrument] = {}

    def child(self, labels: dict[str, str]) -> Instrument:
        """Get-or-create the instrument for one label set.

        Call sites should resolve their children once (at construction)
        and keep the handle.  Repeat lookups against an already-registered
        label-name set take a fast path with no per-call sorting or regex
        validation — the names were validated when the set was first seen,
        so only the values need keying.
        """
        names = self._label_names
        if names is not None and len(labels) == len(names):
            try:
                key = tuple((name, str(labels[name])) for name in names)
            except KeyError:
                pass  # different label names: full validation below
            else:
                child = self._children.get(key)
                if child is None:
                    child = _INSTRUMENTS[self.kind](self, dict(key))
                    self._children[key] = child
                return child
        names = tuple(sorted(labels))
        for label in names:
            if not _LABEL_RE.match(label):
                raise MetricError(f"{self.name}: bad label name {label!r}")
        if self._label_names is None:
            self._label_names = names
        elif names != self._label_names:
            raise MetricError(
                f"{self.name}: label set {names} != registered {self._label_names}"
            )
        key = tuple((k, str(labels[k])) for k in names)
        child = self._children.get(key)
        if child is None:
            child = _INSTRUMENTS[self.kind](self, dict(key))
            self._children[key] = child
        return child

    def samples(self) -> list[tuple[dict[str, str], Instrument]]:
        """``(labels, instrument)`` rows in stable (sorted-label) order."""
        return [
            (dict(key), child) for key, child in sorted(self._children.items())
        ]

    def __len__(self) -> int:
        return len(self._children)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<MetricFamily {self.kind} {self.name} children={len(self)}>"


class MetricsRegistry:
    """One family per metric name; the facility's single source of numbers."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._families: dict[str, MetricFamily] = {}

    # -- registration -------------------------------------------------------
    def _family(
        self,
        name: str,
        kind: str,
        help: str,
        unit: str = "",
        buckets: Optional[Iterable[float]] = None,
    ) -> MetricFamily:
        if kind not in _KINDS:
            raise MetricError(f"unknown metric kind {kind!r}")
        family = self._families.get(name)
        if family is None:
            if not _NAME_RE.match(name):
                raise MetricError(
                    f"bad metric name {name!r} (want dotted lower_snake segments)"
                )
            family = MetricFamily(self, name, kind, help=help, unit=unit,
                                  buckets=buckets)
            self._families[name] = family
        else:
            if family.kind != kind:
                raise MetricError(
                    f"{name}: registered as {family.kind}, requested {kind}"
                )
            if help and not family.help:
                family.help = help
        return family

    def counter(self, name: str, help: str = "", unit: str = "",
                **labels: str) -> Counter:
        """The counter for ``name``/``labels`` (created on first use)."""
        return self._family(name, COUNTER, help, unit).child(labels)  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "", unit: str = "",
              **labels: str) -> Gauge:
        """The direct gauge for ``name``/``labels``."""
        return self._family(name, GAUGE, help, unit).child(labels)  # type: ignore[return-value]

    def gauge_fn(self, name: str, fn: Callable[[], float], help: str = "",
                 unit: str = "", **labels: str) -> Gauge:
        """Register a callback gauge reading live state at collection time."""
        gauge = self.gauge(name, help=help, unit=unit, **labels)
        gauge.set_fn(fn)
        return gauge

    def histogram(self, name: str, buckets: Optional[Iterable[float]] = None,
                  help: str = "", unit: str = "", **labels: str) -> Histogram:
        """The fixed-bucket histogram for ``name``/``labels``."""
        return self._family(name, HISTOGRAM, help, unit, buckets=buckets).child(labels)  # type: ignore[return-value]

    def summary(self, name: str, help: str = "", unit: str = "",
                **labels: str) -> Summary:
        """The exact-sample summary for ``name``/``labels``."""
        return self._family(name, SUMMARY, help, unit).child(labels)  # type: ignore[return-value]

    def freeze_callbacks(self) -> None:
        """Turn every callback gauge into a direct one holding its current
        reading, dropping the callback and whatever it captured."""
        for family in self._families.values():
            if family.kind == GAUGE:
                for gauge in family._children.values():
                    if gauge._fn is not None:
                        gauge._value = float(gauge._fn())
                        gauge._fn = None

    # -- queries ------------------------------------------------------------
    def has(self, name: str) -> bool:
        """Whether any instrument is registered under ``name``."""
        return name in self._families

    def family(self, name: str) -> MetricFamily:
        """The family for ``name`` (raises :class:`MetricError` if absent)."""
        try:
            return self._families[name]
        except KeyError:
            raise MetricError(f"no metric registered under {name!r}") from None

    def families(self) -> list[MetricFamily]:
        """All families, name-sorted (the deterministic export order)."""
        return [self._families[name] for name in sorted(self._families)]

    def names(self) -> list[str]:
        """All registered metric names, sorted."""
        return sorted(self._families)

    def series(self, name: str, **labels: str) -> Optional[Instrument]:
        """The instrument for one exact label set (``None`` when absent)."""
        family = self._families.get(name)
        if family is None:
            return None
        key = tuple((k, str(labels[k])) for k in sorted(labels))
        return family._children.get(key)

    def value(self, name: str, default: float = 0.0, **labels: str) -> float:
        """Scalar value of one counter/gauge series (``default`` if absent)."""
        child = self.series(name, **labels)
        if child is None:
            return default
        return float(child.value)  # type: ignore[union-attr]

    @staticmethod
    def _scalar(family: MetricFamily, child: Instrument) -> float:
        if family.kind in (COUNTER, GAUGE):
            return float(child.value)  # type: ignore[union-attr]
        if family.kind == SUMMARY:
            return float(child.total)  # type: ignore[union-attr]
        return float(child.sum)  # type: ignore[union-attr]

    def total(self, name: str, default: float = 0.0, **labels: str) -> float:
        """Sum over every series of ``name`` whose labels include ``labels``.

        Counters and gauges contribute their value, summaries and
        histograms their sample sum; ``default`` when nothing matches.
        The label filter lets views aggregate, e.g. all
        ``ingest.frames_total`` children regardless of ``agent``.
        """
        family = self._families.get(name)
        if family is None:
            return default
        want = {(k, str(v)) for k, v in labels.items()}
        out, matched = 0.0, False
        for key, child in family._children.items():
            if want <= set(key):
                out += self._scalar(family, child)
                matched = True
        return out if matched else default

    def count(self, name: str, **labels: str) -> int:
        """Observation count over matching series (0 when nothing matches).

        Summaries/histograms report samples recorded, counters report
        increment events; gauges always count as 0.
        """
        family = self._families.get(name)
        if family is None:
            return 0
        want = {(k, str(v)) for k, v in labels.items()}
        out = 0
        for key, child in family._children.items():
            if want <= set(key):
                if family.kind in (SUMMARY, HISTOGRAM):
                    out += child.count  # type: ignore[union-attr]
                elif family.kind == COUNTER:
                    out += child.events  # type: ignore[union-attr]
        return out

    def samples(self, name: str) -> list[tuple[dict[str, str], Instrument]]:
        """``(labels, instrument)`` rows of one family ([] if absent)."""
        family = self._families.get(name)
        return family.samples() if family is not None else []

    def snapshot(self) -> list[dict]:
        """JSON-able dump of every family and sample."""
        out: list[dict] = []
        for family in self.families():
            rows: list[dict] = []
            for labels, child in family.samples():
                row: dict = {"labels": labels}
                if family.kind in (COUNTER, GAUGE):
                    row["value"] = float(child.value)  # type: ignore[union-attr]
                    if family.kind == COUNTER:
                        row["events"] = child.events  # type: ignore[union-attr]
                elif family.kind == HISTOGRAM:
                    row.update(
                        count=child.count, sum=child.sum,  # type: ignore[union-attr]
                        buckets=[
                            {"le": "+Inf" if math.isinf(upper) else upper,
                             "count": n}
                            for upper, n in child.cumulative()  # type: ignore[union-attr]
                        ],
                    )
                else:  # summary
                    row.update(count=child.count)  # type: ignore[union-attr]
                    if child.count:  # type: ignore[union-attr]
                        row.update(
                            mean=child.mean, min=child.min, max=child.max,  # type: ignore[union-attr]
                            p50=child.percentile(50),  # type: ignore[union-attr]
                            p95=child.percentile(95),  # type: ignore[union-attr]
                            p99=child.percentile(99),  # type: ignore[union-attr]
                        )
                rows.append(row)
            out.append({
                "name": family.name,
                "kind": family.kind,
                "help": family.help,
                "unit": family.unit,
                "samples": rows,
            })
        return out

    def __len__(self) -> int:
        return len(self._families)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<MetricsRegistry families={len(self)} enabled={self.enabled}>"
