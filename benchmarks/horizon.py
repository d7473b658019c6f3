"""The paper's screen over growing simulated horizons: does a frame cost
the same CPU and memory after four hours as after thirty minutes?

The zebrafish screen of the paper (six jittered microscopes, about 200k
frames a day; four transfer agents; Poisson background flows of 0.5-2 GB
every 3 s across the backbone) runs through a fresh ``Facility`` per
horizon, in two modes: per-frame (one kernel event chain per frame) and
chunked (``fluid_ingest``, 64-frame offers).  Each run reports:

* ``us_per_frame``: host CPU (``time.process_time``) of
  ``IngestPipeline.run`` per acquired frame, the median over ``--repeat``
  runs that alternate between the horizons;
* ``retained_kb_per_frame``: what the facility still holds after the
  run, per frame, from a separate run under ``tracemalloc`` (started
  after the facility is built, read after a full collection), with that
  run's traced peak beside it;
* the metadata checkpoints the run took, and the CPU spent in them with
  its share of the run.

Not part of the tier-1 suite (the default set takes a few minutes).  Run::

    PYTHONPATH=src python benchmarks/horizon.py                 # 0.5, 2, 4 h
    PYTHONPATH=src python benchmarks/horizon.py --hours 24 --modes chunked \\
        --repeat 1
    PYTHONPATH=src python benchmarks/horizon.py --check         # item-2 gates

It prints a markdown table, then one JSON object per run.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
import tracemalloc

from repro.core import Facility
from repro.core.config import lsdf_2011_config
from repro.durability import DurableMetadataStore
from repro.netsim.traffic import TrafficConfig, TrafficGenerator
from repro.simkit.units import GB, HOUR, MB
from repro.workloads import zebrafish_microscopes

MODES = {"per-frame": False, "chunked": True}


def build(hours: float, chunked: bool, seed: int):
    """A fresh facility running the screen, nothing simulated yet."""
    cfg = lsdf_2011_config()
    cfg.fluid_ingest = chunked
    fac = Facility(config=cfg, seed=seed)
    pipeline = fac.ingest_pipeline(zebrafish_microscopes(instruments=6),
                                   agents=4)
    endpoints = (fac.names.daq + fac.names.storage + [fac.names.heidelberg]
                 + fac.names.cluster[:8])
    TrafficGenerator(
        fac.sim, fac.net, endpoints,
        TrafficConfig(mean_interarrival=3.0, size_lo=0.5 * GB,
                      size_hi=2.0 * GB),
    ).start(duration=hours * HOUR)
    return fac, pipeline


def run(hours: float, chunked: bool, seed: int, traced: bool) -> dict:
    """One run; ``traced`` measures memory (and slows the run down)."""
    spent = [0.0]
    snapshot = DurableMetadataStore.snapshot

    def timed(store):
        started = time.process_time()
        try:
            return snapshot(store)
        finally:
            spent[0] += time.process_time() - started

    fac, pipeline = build(hours, chunked, seed)
    gc.collect()  # no earlier run's garbage is charged to this one
    DurableMetadataStore.snapshot = timed
    try:
        if traced:
            tracemalloc.start()
        started = time.process_time()
        report = pipeline.run(duration=hours * HOUR)
        cpu = time.process_time() - started
    finally:
        DurableMetadataStore.snapshot = snapshot
    frames = report.frames_acquired
    row = {"mode": "chunked" if chunked else "per-frame", "hours": hours,
           "frames": frames, "cpu_s": cpu, "us_per_frame": cpu / frames * 1e6,
           "checkpoints": fac.metadata.snapshots, "checkpoint_cpu_s": spent[0],
           "checkpoint_share": spent[0] / cpu}
    if traced:
        gc.collect()
        retained, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        row.update(retained_kb_per_frame=retained / frames / 1e3,
                   traced_peak_mb=peak / MB)
    del fac, pipeline
    return row


def measure(hours: list[float], modes: list[str], repeat: int,
            seed: int) -> list[dict]:
    """Per (mode, horizon): the median-CPU timed run, with the traced
    run's memory figures merged in."""
    timed: dict = {}
    for _ in range(repeat):
        for mode in modes:
            for h in hours:
                timed.setdefault((mode, h), []).append(
                    run(h, MODES[mode], seed, traced=False))
    rows = []
    for (mode, h), runs in timed.items():
        row = sorted(runs, key=lambda r: r["cpu_s"])[len(runs) // 2]
        row["us_per_frame_runs"] = [r["us_per_frame"] for r in runs]
        traced = run(h, MODES[mode], seed, traced=True)
        row.update(retained_kb_per_frame=traced["retained_kb_per_frame"],
                   traced_peak_mb=traced["traced_peak_mb"])
        rows.append(row)
    return rows


def table(rows: list[dict]) -> str:
    lines = ["| mode | horizon | frames | µs/frame | retained kB/frame "
             "| traced peak | checkpoints | checkpoint CPU |",
             "|---|---|---|---|---|---|---|---|"]
    for r in rows:
        lines.append(
            f"| {r['mode']} | {r['hours']:g} h | {r['frames']:,} "
            f"| {r['us_per_frame']:.0f} | {r['retained_kb_per_frame']:.2f} "
            f"| {r['traced_peak_mb']:.0f} MB | {r['checkpoints']} "
            f"| {r['checkpoint_cpu_s']:.2f} s "
            f"({100 * r['checkpoint_share']:.1f} %) |")
    return "\n".join(lines)


def gates(rows: list[dict]) -> list[tuple[str, bool]]:
    """ROADMAP item 2's gates, per mode: at the longest horizon checkpoint
    CPU is at most 1 % of the run and µs/frame within 10 % of the
    shortest; retained memory at 2 h is at most 1.7 kB per frame."""
    out = []
    for mode in MODES:
        mine = sorted((r for r in rows if r["mode"] == mode),
                      key=lambda r: r["hours"])
        if not mine:
            continue
        first, last = mine[0], mine[-1]
        out.append((f"{mode}: checkpoint CPU at {last['hours']:g} h <= 1 %",
                    last["checkpoint_share"] <= 0.01))
        out.append((f"{mode}: µs/frame at {last['hours']:g} h within 10 % "
                    f"of {first['hours']:g} h",
                    last["us_per_frame"] <= 1.1 * first["us_per_frame"]))
        out.extend((f"{mode}: retained at 2 h <= 1.7 kB/frame",
                    r["retained_kb_per_frame"] <= 1.7)
                   for r in mine if r["hours"] == 2)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--hours", type=float, nargs="+",
                        default=[0.5, 2.0, 4.0])
    parser.add_argument("--modes", nargs="+", choices=sorted(MODES),
                        default=list(MODES))
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--seed", type=int, default=16)
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless every item-2 gate holds")
    args = parser.parse_args(argv)
    rows = measure(args.hours, args.modes, args.repeat, args.seed)
    print(table(rows))
    for row in rows:
        print(json.dumps(row, sort_keys=True))
    if not args.check:
        return 0
    results = gates(rows)
    for name, ok in results:
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    return 0 if all(ok for _, ok in results) else 1


if __name__ == "__main__":
    sys.exit(main())
