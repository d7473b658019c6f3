"""The overload drill: the front door's robustness headline, made runnable.

:func:`run_overload_drill` builds a small facility, drives its front door
with the open-loop load generator, ramps offered load to a >= 5x
saturation plateau while injecting backend faults (via the
``overload_drill`` chaos schedule), and evaluates the pass condition:

* **goodput plateaus** — served requests/second during the saturation
  window stays within 20% of the pre-overload baseline plateau (the naive
  ablation arm collapses instead, because workers burn service time on
  requests whose clients already gave up);
* **zero silent loss** — every submitted request reached exactly one
  terminal outcome; nothing is queued, in flight, or unaccounted at
  quiescence;
* **bounded queues** — the observed queue high-water mark never exceeds
  the configured bound;
* **retry-storm containment** (storm arm) — with impatient clients
  resubmitting failures, the admitted-request rate during the surge stays
  within a small factor of the baseline admitted rate: admission control
  breaks the metastable feedback loop instead of amplifying it.

The same runner backs the CLI (``python -m repro.cli frontdoor``), the CI
gate, bench E18 and the tests, so "the drill passes" means one thing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.simkit import units


@dataclass
class PhaseStat:
    """Counter deltas over one drill phase."""

    name: str
    start: float
    end: float
    submitted: int
    admitted: int
    served: int

    @property
    def duration(self) -> float:
        """Phase length in simulated seconds."""
        return self.end - self.start

    @property
    def goodput(self) -> float:
        """Served requests/second over the phase."""
        return self.served / self.duration if self.duration > 0 else 0.0

    @property
    def admitted_rate(self) -> float:
        """Admitted requests/second over the phase."""
        return self.admitted / self.duration if self.duration > 0 else 0.0


@dataclass
class DrillResult:
    """Everything the overload drill measured, plus the gate verdicts."""

    enabled: bool
    storm: bool
    phases: list[PhaseStat] = field(default_factory=list)
    accounting: dict = field(default_factory=dict)
    peak_queue_depth: int = 0
    queue_bound: int = 0
    flushed: int = 0
    client_retries: int = 0
    admitted_retries: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """Whether every gate held."""
        return not self.failures

    def phase(self, name: str) -> PhaseStat:
        """Look up a phase by name."""
        for stat in self.phases:
            if stat.name == name:
                return stat
        raise KeyError(name)

    @property
    def baseline_goodput(self) -> float:
        """Served/s over the pre-overload plateau window."""
        return self.phase("baseline").goodput

    @property
    def surge_goodput(self) -> float:
        """Served/s over the saturation window."""
        return self.phase("surge").goodput

    def fingerprint(self) -> tuple:
        """A deterministic digest for twin-run comparison."""
        return (
            self.enabled, self.storm,
            tuple((p.name, p.start, p.end, p.submitted, p.admitted, p.served)
                  for p in self.phases),
            tuple(sorted(self.accounting.get("terminal", {}).items())),
            self.accounting.get("submitted"),
            self.peak_queue_depth, self.flushed,
            self.client_retries, self.admitted_retries,
            tuple(self.failures),
        )


def _served_total(reg) -> int:
    """Full + degraded serves across tenants."""
    total = 0
    for labels, instrument in reg.samples("frontdoor.outcomes_total"):
        if labels["outcome"] in ("served", "served_degraded"):
            total += int(instrument.value)
    return total


def prepare_overload_drill(
    seed: int = 0,
    scale: float = 1.0,
    duration_scale: float = 1.0,
    enabled: bool = True,
    storm: bool = False,
    flaky_rate: float = 0.2,
    client_retries: int = 3,
    baseline: float = 120.0,
    step: float = 45.0,
    surge: float = 90.0,
    recovery: float = 90.0,
    goodput_floor: float = 0.8,
    storm_admit_factor: float = 1.15,
):
    """Build the drill without advancing the clock; returns
    ``(facility, finish)``.

    Everything up to the first simulation step happens here — facility
    construction, load-generator population, the chaos schedule, the
    phase-boundary snapshots.  Calling ``finish()`` runs the facility to
    quiescence, assembles the :class:`DrillResult` and evaluates the
    gates.  The split exists for the runtime sanitizers, which install a
    trace recorder (and optionally a randomized tie-shuffle) on
    ``facility.sim`` between construction and execution.
    """
    from repro.core.config import ArraySpec, FacilityConfig
    from repro.core.facility import Facility
    from repro.frontdoor.loadgen import LoadGenerator

    workers = max(1, int(round(4 * scale)))
    # The queue bound (the door's default) deliberately does NOT scale
    # down with the workers: a deep backlog relative to drain rate is what
    # makes the naive arm's congestion collapse (workers grinding through
    # expired requests) visible at every scale.
    config = FacilityConfig(
        arrays=[ArraySpec("a1", 10 * units.TB, 2 * units.GB),
                ArraySpec("a2", 10 * units.TB, 2 * units.GB)],
        cluster_racks=1,
        nodes_per_rack=2,
        frontdoor_enabled=enabled,
        frontdoor_workers=workers,
        frontdoor_scale=scale,
    )
    facility = Facility(config, seed=seed)

    b = baseline * duration_scale
    s = step * duration_scale
    g = surge * duration_scale
    r = recovery * duration_scale
    surge_start = b + 2 * s
    surge_end = surge_start + g
    end = surge_end + r

    loadgen = LoadGenerator(
        facility.sim, facility.frontdoor,
        client_retries=client_retries if storm else 0,
    )
    loadgen.populate()
    loadgen.start(end)
    schedule = facility.overload_drill(
        loadgen, start=b, step=s, surge=g, flaky_rate=flaky_rate)
    schedule.run(facility)

    reg = facility.telemetry.registry
    marks: dict[str, dict] = {}

    def snap(label: str):
        def record() -> None:
            marks[label] = {
                "submitted": int(reg.total("frontdoor.requests_total")),
                "admitted": int(reg.total("frontdoor.admitted_total")),
                "served": _served_total(reg),
            }
        return record

    boundaries = [
        ("warmup_end", b / 2.0),
        ("baseline_end", b),
        ("surge_start", surge_start),
        ("surge_end", surge_end),
        ("end", end),
    ]
    for label, when in boundaries:
        facility.sim.call_at(when, snap(label))

    def finish() -> DrillResult:
        facility.run()  # to quiescence: arrivals ended, workers idle

        result = DrillResult(enabled=enabled, storm=storm)
        result.peak_queue_depth = facility.frontdoor.core.queue.peak_depth
        result.flushed = facility.frontdoor.flush_queue()

        def phase_stat(name: str, lo: str, lo_t: float, hi: str,
                       hi_t: float) -> PhaseStat:
            a, z = marks[lo], marks[hi]
            return PhaseStat(
                name=name, start=lo_t, end=hi_t,
                submitted=z["submitted"] - a["submitted"],
                admitted=z["admitted"] - a["admitted"],
                served=z["served"] - a["served"])

        result.phases = [
            phase_stat("baseline", "warmup_end", b / 2.0, "baseline_end", b),
            phase_stat("ramp", "baseline_end", b, "surge_start", surge_start),
            phase_stat("surge", "surge_start", surge_start,
                       "surge_end", surge_end),
            phase_stat("recovery", "surge_end", surge_end, "end", end),
        ]
        result.accounting = facility.frontdoor.accounting()
        result.queue_bound = (facility.frontdoor.core.queue.capacity
                              * len(facility.frontdoor.tenants))
        result.client_retries = int(
            reg.value("frontdoor.client_retries_total"))
        result.admitted_retries = int(
            reg.value("frontdoor.admitted_retries_total"))

        # -- gates -----------------------------------------------------------
        acct = result.accounting
        if acct["silent_loss"] != 0:
            result.failures.append(
                f"silent loss: {acct['silent_loss']} requests unaccounted")
        if acct["queued"] != 0 or acct["in_flight"] != 0:
            result.failures.append(
                f"not quiescent: {acct['queued']} queued, "
                f"{acct['in_flight']} in flight")
        if result.peak_queue_depth > result.queue_bound:
            result.failures.append(
                f"queue bound violated: peak {result.peak_queue_depth} "
                f"> {result.queue_bound}")
        if enabled:
            floor = goodput_floor * result.baseline_goodput
            if result.surge_goodput < floor:
                result.failures.append(
                    f"goodput collapsed: surge {result.surge_goodput:.2f}/s "
                    f"< {goodput_floor:.0%} of baseline "
                    f"{result.baseline_goodput:.2f}/s")
        if enabled and storm:
            # Admission control's promise under a retry storm: admitted
            # volume stays bounded by the aggregate token-bucket rate no
            # matter how hard impatient clients resubmit (the naive arm
            # admits the storm wholesale).  The factor absorbs
            # bucket-burst slack.
            limits = [spec.rate_limit
                      for spec in facility.frontdoor.tenants.values()]
            if all(limit is not None for limit in limits):
                cap = storm_admit_factor * sum(limits)
                if result.phase("surge").admitted_rate > cap:
                    result.failures.append(
                        "retry storm not contained: surge admitted "
                        f"{result.phase('surge').admitted_rate:.2f}/s > "
                        f"{cap:.2f}/s (aggregate rate limit "
                        f"x {storm_admit_factor:g})")
        return result

    return facility, finish


def run_overload_drill(
    seed: int = 0,
    scale: float = 1.0,
    duration_scale: float = 1.0,
    enabled: bool = True,
    storm: bool = False,
    flaky_rate: float = 0.2,
    client_retries: int = 3,
    baseline: float = 120.0,
    step: float = 45.0,
    surge: float = 90.0,
    recovery: float = 90.0,
    goodput_floor: float = 0.8,
    storm_admit_factor: float = 1.15,
):
    """Run the full overload drill; returns ``(facility, DrillResult)``.

    ``scale`` shrinks clients, rate limits and workers together (the tiny
    CI arm); ``duration_scale`` shrinks every phase.  ``enabled=False``
    runs the naive ablation arm (the plateau and storm gates are skipped
    for it — it exists to show the collapse; accounting must still
    balance).  ``storm`` makes clients impatient: failed requests are
    resubmitted up to ``client_retries`` times.
    """
    facility, finish = prepare_overload_drill(
        seed=seed, scale=scale, duration_scale=duration_scale,
        enabled=enabled, storm=storm, flaky_rate=flaky_rate,
        client_retries=client_retries, baseline=baseline, step=step,
        surge=surge, recovery=recovery, goodput_floor=goodput_floor,
        storm_admit_factor=storm_admit_factor)
    return facility, finish()
