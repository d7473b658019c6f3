"""E18 — front door under overload: goodput vs offered load, with ablation.

The paper's ADAL chapter promises a uniform access layer for every
community, but says nothing about what happens when all of them show up at
once.  E18 runs the overload drill — a 5x open-loop surge over four
communities with a flaky backend and a degraded array in the middle of it —
through two front doors:

* the **defended** arm (admission control, CoDel shedding, deadline
  propagation, brownout) must hold surge goodput within 20% of baseline,
  keep queues bounded, lose nothing silently, and recover;
* the **naive** arm (same workers, no defences) is the ablation: it grinds
  expired backlog and collapses, which is the behaviour the tentpole
  removes.

A third arm closes the client feedback loop (impatient retries) and checks
the admitted rate stays pinned to the sum of the per-tenant rate limits —
retry storms are contained at the door instead of amplifying inside.

Twin runs of the defended arm must be bit-identical.
``LSDF_BENCH_TINY=1`` shrinks client counts and durations for CI smoke.
"""

import os

from repro.frontdoor import run_overload_drill
from repro.frontdoor.service import DEADLINES

_TINY = os.environ.get("LSDF_BENCH_TINY", "") not in ("", "0")
_SCALE = 0.2 if _TINY else 1.0
_DURATION = 0.5 if _TINY else 1.0
_SEED = 47


def _run(enabled=True, storm=False, seed=_SEED):
    return run_overload_drill(
        seed=seed, scale=_SCALE, duration_scale=_DURATION,
        enabled=enabled, storm=storm)


def _p99(facility):
    reg = facility.telemetry.registry
    [(_labels, latency)] = reg.samples("frontdoor.latency_seconds")
    return latency.percentile(99)


def _ratio(result):
    return (result.surge_goodput / result.baseline_goodput
            if result.baseline_goodput else 0.0)


def _row(label, expected, result):
    return (f"{label}: surge/baseline goodput", expected,
            f"{_ratio(result):.2f} ({result.surge_goodput:.1f}/s vs "
            f"{result.baseline_goodput:.1f}/s, peak queue "
            f"{result.peak_queue_depth}/{result.queue_bound})")


def test_e18_frontdoor_overload(benchmark, report):
    ((defended_facility, defended), (naive_facility, naive),
     (_storm_facility, storm)) = benchmark.pedantic(
        lambda: (_run(), _run(enabled=False), _run(storm=True)),
        rounds=1, iterations=1)
    _twin_facility, twin = _run(seed=_SEED)

    served = defended.accounting["terminal"]
    defended_p99, naive_p99 = _p99(defended_facility), _p99(naive_facility)
    bulk_deadline = DEADLINES[-1]
    rows = [
        _row("defended", ">= 0.80", defended),
        _row("naive (ablation)", "< defended", naive),
        # The defences do not buy served-request tail latency: in both arms
        # bulk work queues up to its deadline and is served just inside it.
        ("served-request p99 latency", f"<= {bulk_deadline:.0f} s, both arms",
         f"{defended_p99:.2f} s defended vs {naive_p99:.2f} s naive"),
        ("defended: silent loss", "0",
         str(defended.accounting["silent_loss"])),
        ("defended: outcome mix", "(informational)",
         f"{served['served']} served, {served['served_degraded']} degraded, "
         f"{served['rejected']} rejected, {served['shed']} shed, "
         f"{served['timed_out']} timed out"),
        ("storm arm: client resubmissions", "contained at the door",
         f"{storm.client_retries} offered, "
         f"{storm.admitted_retries} admitted"),
        ("timed-out requests", "naive > defended",
         f"{naive.accounting['terminal']['timed_out']} naive vs "
         f"{served['timed_out']} defended"),
        ("twin-run determinism", "bit-identical",
         "identical" if defended.fingerprint() == twin.fingerprint()
         else "DIVERGED"),
    ]
    report("E18", "front door overload: goodput under a 5x surge", rows)

    # Shape: every defended gate passes, the ablation collapses (or at
    # least times work out en masse), and the drill is deterministic.
    assert defended.passed, defended.failures
    assert storm.passed, storm.failures
    assert defended.accounting["silent_loss"] == 0
    assert naive.accounting["silent_loss"] == 0
    assert _ratio(naive) < _ratio(defended)
    assert max(defended_p99, naive_p99) <= bulk_deadline
    assert naive.accounting["terminal"]["timed_out"] > served["timed_out"]
    assert defended.fingerprint() == twin.fingerprint()
