"""Run ONE workload in this (fresh) process and print its metrics.

The driver's entry point::

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with no instrumentation:
one warm-up repetition, then timed repetitions — each from freshly built
state, so all are identical work — until ``--seconds`` have passed, and
reports medians.  ``--trace 1`` runs a fixed plan instead (warm-up, one
plain repetition, one under ``cProfile``, one under the span recorder on
the wire workloads) and reports the per-layer metrics; the wall-time gap
between the plain and the instrumented repetitions is the tracing
overhead.  Either way the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``, and the exit code
is non-zero when any correctness check failed.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # process start, for setup_s

import argparse  # noqa: E402
import cProfile  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)
# Run as a script, sys.path[0] is perfbench/ itself, where trace.py would
# shadow the stdlib module of that name; the package's parent goes there
# instead, followed by the library under test.
if os.path.abspath(sys.path[0]) == _HERE:
    sys.path[0] = _ROOT
for _path in (_ROOT, os.path.join(_ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(1, _path)

from perfbench import spec  # noqa: E402
from perfbench.trace import SpanRecorder, profile_layers  # noqa: E402

#: Fresh processes timed for ``setup_s`` besides this one.
SETUP_CHILDREN = 2
#: Fewest timed repetitions a run reports a median of.
MIN_REPS = 3


def _git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "-C", _ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, check=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"  # the driver's checkout is not a git repository


def _environment(seed: int) -> dict:
    try:
        import numpy  # noqa: F401
        has_numpy = True
    except ImportError:
        has_numpy = False
    load = os.getloadavg()[0]
    nproc = os.cpu_count() or 1
    if load > nproc:
        print(f"# warning: 1-min load average {load:.2f} > nproc {nproc}; "
              "timings will be noisy", file=sys.stderr)
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "nproc": nproc,
        "numpy": has_numpy,
        "loadavg_1m_at_start": load,
        "seed": seed,
    }


def _setup_in_child(args) -> float:
    """``setup_s`` of one more fresh process (imports + build, no work)."""
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", args.workload, "--seed", str(args.seed),
               "--setup-only"] + (["--tiny"] if args.tiny else [])
    done = subprocess.run(command, capture_output=True, text=True,
                          check=True, timeout=120)
    return float(json.loads(done.stdout.splitlines()[-1])["setup_s"])


def _timed_rep(module, size: dict, seed: int) -> dict:
    """One repetition, its latency samples already reduced to percentiles
    so that the harness's own memory does not grow with the rep count."""
    rep = module.one_rep(size, seed)
    samples = rep.pop("samples_ms")
    cuts = statistics.quantiles(samples, n=20, method="inclusive")
    return dict(rep, rate=rep["ops"] / rep["wall_s"], p50_ms=cuts[9],
                p95_ms=cuts[18], tail=cuts[18] / cuts[9],
                samples=len(samples))


def _untraced(module, size: dict, args, import_s: float) -> tuple[dict, dict]:
    warmup = _timed_rep(module, size, args.seed)
    setups = [import_s + warmup["build_s"]]
    setups += [_setup_in_child(args) for _ in range(args.setup_children)]
    timed: list[dict] = []
    began = time.perf_counter()
    while (len(timed) < MIN_REPS
           or time.perf_counter() - began < args.seconds):
        timed.append(_timed_rep(module, size, args.seed))
    # Percentiles per repetition, then the median repetition: one disturbed
    # repetition must not own the tail of a pooled sample.
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": statistics.median(rep["rate"] for rep in timed),
        "latency_p50_ms": statistics.median(rep["p50_ms"] for rep in timed),
        "latency_p95_over_p50": statistics.median(rep["tail"] for rep in timed),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "reps": len(timed),
        "latency_samples_per_rep": timed[0]["samples"],
        "latency_p95_ms": statistics.median(rep["p95_ms"] for rep in timed),
        "setup_s_samples": setups,
    }
    for key in ("rate", "p50_ms", "p95_ms", "wall_s", "build_s"):
        detail[f"{key}_per_rep"] = [rep[key] for rep in timed]
    return _verdict([warmup] + timed, timed, metrics, detail)


def _traced(module, size: dict, args) -> tuple[dict, dict]:
    reps = [module.one_rep(size, args.seed)]  # warm-up
    plain = module.one_rep(size, args.seed)
    profiler = cProfile.Profile()
    profiled = module.one_rep(size, args.seed, profiler=profiler)
    reps += [plain, profiled]
    metrics = profile_layers(profiler, profiled["ops"])
    metrics["trace.profile_overhead_share"] = (
        (profiled["wall_s"] - plain["wall_s"]) / plain["wall_s"])
    detail = {"plain_wall_s": plain["wall_s"],
              "profiled_wall_s": profiled["wall_s"]}
    if module.SPANNED:
        spans = SpanRecorder()
        spanned = module.one_rep(size, args.seed, spans=spans)
        reps.append(spanned)
        metrics.update(spanned["layer"])
        metrics["trace.span_overhead_share"] = (
            (spanned["wall_s"] - plain["wall_s"]) / plain["wall_s"])
        detail["spanned_wall_s"] = spanned["wall_s"]
        detail["spans"] = len(spans.spans)
        trace_path = os.path.join(spec.OUT, f"trace_{args.workload}.json")
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "fields": ["name", "start_ns", "end_ns", "parent",
                                  "note"],
                       "spans": spans.spans}, fh)
    metrics.update(plain["layer"])  # uninstrumented readings win
    return _verdict(reps, reps[1:], metrics, detail)


def _verdict(reps: list[dict], counted: list[dict], metrics: dict,
             detail: dict) -> tuple[dict, dict]:
    problems = [p for rep in reps for p in rep["problems"]]
    digests = sorted({rep["digest"] for rep in reps if rep["digest"]})
    if len(digests) > 1:
        problems.append(f"repetitions disagree on sim_digest: {digests}")
    detail["sim_digest"] = digests[0] if digests else None
    detail["problems"] = problems
    result = {
        "correct": not problems,
        "attempted": sum(rep["ops"] for rep in counted),
        "failed": sum(rep["failed"] for rep in counted),
        "metrics": metrics,
    }
    return result, detail


def main(argv=None) -> int:
    benchmark, extra = spec.load()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--seed", type=int, default=16)
    parser.add_argument("--seconds", type=float,
                        default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="~1/20-size workloads (the selftest's)")
    parser.add_argument("--setup-children", type=int, default=SETUP_CHILDREN,
                        help="extra fresh processes timed for setup_s")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print setup_s as JSON, exit")
    args = parser.parse_args(argv)

    workload = extra["workloads"][args.workload]
    size = workload["tiny" if args.tiny else "size"]
    os.makedirs(spec.OUT, exist_ok=True)
    try:
        module = importlib.import_module(f"perfbench.{workload['module']}")
    except ModuleNotFoundError as exc:
        if exc.name != "repro":
            raise
        print("perfbench: the library under test (src/repro) is not in this "
              "checkout", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _T0
    if args.setup_only:
        module.setup_once(size, args.seed)
        print(json.dumps({"setup_s": time.perf_counter() - _T0}))
        return 0

    environment = _environment(args.seed)
    if args.trace:
        declared = benchmark["per_layer"]
        result, detail = _traced(module, size, args)
    else:
        declared = benchmark["end_to_end"]
        result, detail = _untraced(module, size, args, import_s)
    measured = result["metrics"]
    undeclared = sorted(set(measured) - {m["name"] for m in declared})
    if undeclared:
        detail["problems"].append(f"undeclared metrics: {undeclared}")
        result["correct"] = False
    # A layer this workload never enters did no work: it reads 0.
    result["metrics"] = {
        m["name"]: {"value": measured.get(m["name"], 0.0), "unit": m["unit"]}
        for m in declared}

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for key in ("reps", "latency_samples_per_rep", "latency_p95_ms",
                "sim_digest"):
        if detail.get(key) is not None:
            print(f"# {key} {detail[key]}")
    for name, reading in result["metrics"].items():
        if name in measured:
            print(f"{name} {reading['value']:.6g} {reading['unit']}")
    for problem in detail["problems"]:
        print(f"# FAILED CHECK: {problem}")
    record = dict(environment, workload=args.workload, trace=args.trace,
                  tiny=args.tiny, seconds=args.seconds,
                  measured=sorted(measured), detail=detail, result=result)
    record_path = os.path.join(
        spec.OUT, f"last_{args.workload}_trace{args.trace}.json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
