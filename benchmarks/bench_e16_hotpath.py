"""E16 — the hot-path overhaul actually paid off.

PR 5 makes the three hottest layers cheap per event: the netsim fair-share
engine goes incremental (persistent flow/link/weight structures, batched
same-instant solves, solve skipping, an epoch-keyed route cache), the
simkit kernel loses its per-event property/formatting overhead, and
telemetry handle lookups are pre-resolved.  E16 runs the high-concurrency
ingest+backbone scenario from :func:`repro.bench.run_hotpath` and gates on
**interpreter calls per ingested frame** — deterministic for a seeded
simulation, unlike wall-clock on shared CI machines (the E15 technique).

The ``_BASELINE_*`` constants are the same scenario measured at the PR 5
merge base (commit d8c3023, "Unified telemetry spine"); the gate asserts
at least a 2x reduction against them.  The run must stay bit-for-bit
deterministic: two same-seed runs must agree on every seed-determined
measurement.

The **fluid arm** runs the same scenario with rate-interval ingest (bulk
buffer/storage operations on a zero-jitter workload) and gates on a
>= 10x calls/frame reduction against the same merge-base baseline, with
its own determinism twin.

``LSDF_BENCH_TINY=1`` shrinks the horizon for CI smoke runs.
"""

import os

from repro.bench import run_hotpath
from repro.simkit.units import fmt_duration

_TINY = os.environ.get("LSDF_BENCH_TINY", "") not in ("", "0")
_SIM_HOURS = 0.25 if _TINY else 1.0
_INSTRUMENTS = 2 if _TINY else 6

# Interpreter calls per ingested frame at the pre-PR merge base
# (d8c3023), measured with this same scenario + cProfile recipe:
# tiny arm: 2,074 frames / 6,528,916 calls; standard arm: 8,322 frames /
# 29,121,138 calls.
_BASELINE_CALLS_PER_FRAME = 3148.0 if _TINY else 3499.3
_MIN_SPEEDUP = 2.0
_MIN_FLUID_SPEEDUP = 10.0

def _solves_row(result) -> tuple[str, str, str]:
    """A rebalance skips its solve after a reroute that leaves every path
    unchanged (``test_noop_topology_event_skips_the_solve``), or when the
    flows have the paths and weights of the solution the current one
    replaced: an ingest batch leaving the background flows it squeezed, or
    the next batch taking its place (``TestRestoredFlowSet``).  Every pass
    either solves or skips; both arms assert it, and that reuse happens."""
    return ("fair-share solves (skipped)", "solved + skipped = all",
            f"{result.solves:,} of {result.rebalances:,} passes "
            f"({result.solves_skipped:,} skipped)")


def _measure(fluid: bool = False):
    # Warm-up run (flushes lazy imports out of the profiled region) doubles
    # as the determinism twin; the profiled run supplies the gate metric.
    warm = run_hotpath(hours=_SIM_HOURS, instruments=_INSTRUMENTS, fluid=fluid)
    profiled = run_hotpath(
        hours=_SIM_HOURS, instruments=_INSTRUMENTS, profile=True, fluid=fluid
    )
    return warm, profiled


def test_e16_hotpath_speedup(benchmark, report):
    warm, profiled = benchmark.pedantic(_measure, rounds=1, iterations=1)
    speedup = _BASELINE_CALLS_PER_FRAME / profiled.calls_per_frame
    hit_ratio = profiled.route_cache_hits / max(
        1, profiled.route_cache_hits + profiled.route_cache_misses
    )
    report(
        "E16", "hot-path overhaul: incremental netsim + slotted kernel",
        [
            ("frames acquired", "-", f"{profiled.frames:,}"),
            ("background flows", "-", f"{profiled.background_flows:,}"),
            ("events scheduled", "-", f"{profiled.events_scheduled:,}"),
            ("events/sec (wall)", "informational",
             f"{warm.events_per_second:,.0f}"),
            ("interpreter calls/frame", f"{_BASELINE_CALLS_PER_FRAME:,.1f} "
             "at merge base", f"{profiled.calls_per_frame:,.1f}"),
            ("calls/frame reduction", f">= {_MIN_SPEEDUP:.1f}x",
             f"{speedup:.2f}x"),
            _solves_row(profiled),
            ("rebalance passes", "one per batched instant",
             f"{profiled.rebalances:,}"),
            ("route cache hit ratio", "> 0.9",
             f"{hit_ratio:.3f} ({profiled.route_cache_hits:,} hits)"),
            ("wall-clock (unprofiled)", "informational",
             fmt_duration(warm.wall_seconds)),
        ],
    )
    # Determinism: every seed-determined measurement agrees between the
    # warm-up and profiled runs (profiling must observe, not perturb).
    assert warm.deterministic() == profiled.deterministic()
    # The scenario actually exercised both subsystems under load.
    assert profiled.frames > 0 and profiled.background_flows > 0
    assert profiled.solves > 0
    assert profiled.solves + profiled.solves_skipped == profiled.rebalances
    assert profiled.solves_skipped > 0
    # Route caching works: repeat pairs on a stable topology never re-run
    # pathfinding.
    assert hit_ratio > 0.9
    # The gate: interpreter work per frame dropped at least 2x vs the
    # pre-PR baseline.
    assert speedup >= _MIN_SPEEDUP, (
        f"calls/frame {profiled.calls_per_frame:,.1f} is only "
        f"{speedup:.2f}x better than the {_BASELINE_CALLS_PER_FRAME:,.1f} "
        f"baseline (need >= {_MIN_SPEEDUP:.1f}x)"
    )


def test_e16_fluid_arm_speedup(benchmark, report):
    warm, profiled = benchmark.pedantic(
        _measure, args=(True,), rounds=1, iterations=1)
    speedup = _BASELINE_CALLS_PER_FRAME / profiled.calls_per_frame
    report(
        "E16-fluid", "fluid-event kernel: rate-interval ingest",
        [
            ("frames acquired", "-", f"{profiled.frames:,}"),
            ("background flows", "-", f"{profiled.background_flows:,}"),
            ("events scheduled", "vs per-frame arm's O(frames)",
             f"{profiled.events_scheduled:,}"),
            ("events/sec (wall)", "informational",
             f"{warm.events_per_second:,.0f}"),
            ("interpreter calls/frame", f"{_BASELINE_CALLS_PER_FRAME:,.1f} "
             "at merge base", f"{profiled.calls_per_frame:,.1f}"),
            ("calls/frame reduction", f">= {_MIN_FLUID_SPEEDUP:.1f}x",
             f"{speedup:.2f}x"),
            _solves_row(profiled),
            ("wall-clock (unprofiled)", "informational",
             fmt_duration(warm.wall_seconds)),
        ],
    )
    # Determinism twin: the fluid arm must be exactly as reproducible as
    # the per-frame arm (profiling observes, never perturbs).
    assert warm.deterministic() == profiled.deterministic()
    assert profiled.frames > 0 and profiled.background_flows > 0
    assert profiled.solves + profiled.solves_skipped == profiled.rebalances
    assert profiled.solves_skipped > 0
    # The tentpole gate: rate-interval ingest cuts interpreter work per
    # frame at least 10x against the PR 5 merge-base baseline.
    assert speedup >= _MIN_FLUID_SPEEDUP, (
        f"fluid calls/frame {profiled.calls_per_frame:,.1f} is only "
        f"{speedup:.2f}x better than the {_BASELINE_CALLS_PER_FRAME:,.1f} "
        f"baseline (need >= {_MIN_FLUID_SPEEDUP:.1f}x)"
    )
