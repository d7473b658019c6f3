"""Compare two sets of full-run records, by the benchmark's own bounds.

::

    python -m perfbench.compare A.json [A2.json ...] -- B.json [B2.json ...]

For every workload × end-to-end metric: each side's median and quartiles
and a verdict —

``worse``       B's median is worse than A's by more than the metric's bound;
``better``      B's median is better by more than A's own quartile spread
                and B wins at least nine tenths of all (A run, B run) pairs;
``same``        neither;
``unresolved``  a side's quartile spread is wider than the bound, so the
                runs cannot tell (unless every B run beats every A run).

Exits non-zero on any ``worse`` or when B failed a larger share of its
operations.  The ``exact`` per-layer counts and the ``sim_digest`` of the
simulated workloads are diffed per (workload, seed) and reported: after a
change to the simulated interior they are *expected* to differ, between
two runs of the same code they must not.  The same tool serves the A/A
check and parent-versus-change.
"""

from __future__ import annotations

import json
import statistics
import sys

from perfbench import spec


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(a: list[float], b: list[float], better: str,
            bound: float) -> tuple[str, float]:
    """``(verdict, relative change of the median, positive = worse)``."""
    sign = 1.0 if better == "lower" else -1.0
    a_q1, a_med, a_q3 = _quartiles(a)
    b_q1, b_med, b_q3 = _quartiles(b)
    change = sign * (b_med - a_med) / a_med
    a_spread = (a_q3 - a_q1) / a_med
    wins = sum(sign * y < sign * x for x in a for y in b) / (len(a) * len(b))
    if max(a_spread, (b_q3 - b_q1) / b_med) > bound:
        return ("better" if wins == 1.0 else "unresolved"), change
    if change > bound:
        return "worse", change
    if -change > a_spread and wins >= 0.9:
        return "better", change
    return "same", change


def _load(paths: list[str]) -> list[dict]:
    runs = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            runs.append(json.load(fh))
    return runs


def compare(a_runs: list[dict], b_runs: list[dict]) -> int:
    benchmark, extra = spec.load()
    exit_code = 0
    print(f"{'workload':20s} {'metric':15s} {'A q1/median/q3':>32s} "
          f"{'B q1/median/q3':>32s} {'change':>8s}  verdict")
    for workload in (w["name"] for w in benchmark["workloads"]):
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            a = [r["workloads"][workload]["end_to_end"][name] for r in a_runs]
            b = [r["workloads"][workload]["end_to_end"][name] for r in b_runs]
            outcome, change = verdict(a, b, metric["better"], metric["bound"])
            if outcome == "worse":
                exit_code = 1
            print(f"{workload:20s} {name:15s} "
                  + " ".join(
                      f"{'/'.join(f'{q:.4g}' for q in _quartiles(side)):>32s}"
                      for side in (a, b))
                  + f" {change:+8.1%}  {outcome}")
        shares = [sum(r["workloads"][workload]["failed"] for r in runs)
                  / sum(r["workloads"][workload]["attempted"] for r in runs)
                  for runs in (a_runs, b_runs)]
        if shares[1] > shares[0]:
            exit_code = 1
            print(f"{workload:20s} failed share rose: "
                  f"{shares[0]:.6f} -> {shares[1]:.6f}")

    exact = sorted(n for n, m in extra["per_layer"].items()
                   if m["flag"] == "exact")
    differences = 0
    for workload, declared in extra["workloads"].items():
        if declared["module"] != "ingest":
            continue
        by_seed: dict[int, list[dict]] = {}
        for run in a_runs + b_runs:
            by_seed.setdefault(run["seed"], []).append(run["workloads"][workload])
        for seed, entries in sorted(by_seed.items()):
            for field, readings in (
                    [("sim_digest", [e["sim_digest"] for e in entries])]
                    + [(n, [e["per_layer"][n] for e in entries])
                       for n in exact]):
                if len(set(readings)) > 1:
                    differences += 1
                    print(f"{workload} seed {seed}: {field} differs: "
                          f"{sorted(set(readings))}")
    print(f"# exact counts and sim_digests: "
          f"{differences or 'no'} differences across runs of equal seed")
    return exit_code


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--" not in argv or argv[0] == "--" or argv[-1] == "--":
        print(__doc__)
        return 2
    split = argv.index("--")
    return compare(_load(argv[:split]), _load(argv[split + 1:]))


if __name__ == "__main__":
    raise SystemExit(main())
