"""The whole benchmark in one command.

::

    PYTHONPATH=src python -m perfbench --seed 16 --out perfbench/out/run.json
    PYTHONPATH=src python -m perfbench --selftest

A full run executes every workload declared in ``BENCHMARK.json`` twice —
untraced for the end-to-end metrics, traced for the per-layer ones — each
in its own fresh ``perfbench/run.py`` child process, one at a time.  It
prints every metric by name with its unit, writes one run record to
``--out`` and exits non-zero if any child's correctness checks failed.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import time

from perfbench import spec

_NAME = re.compile(r"[A-Za-z0-9_.-]+")
_RUN = os.path.join(spec.HERE, "run.py")


def _child(workload: str, seed: int, trace: int, extra: list[str]) -> dict:
    """Run one workload in a fresh process; return its record, with the
    child's exit code and the metrics of its final JSON line added."""
    record_path = os.path.join(spec.OUT, f"last_{workload}_trace{trace}.json")
    if os.path.exists(record_path):
        os.remove(record_path)  # never mistake a stale record for this run's
    done = subprocess.run(
        [sys.executable, _RUN, "--workload", workload, "--seed", str(seed),
         "--trace", str(trace)] + extra,
        stdout=subprocess.PIPE, text=True, timeout=180)
    lines = done.stdout.splitlines()
    if not os.path.exists(record_path):
        raise SystemExit(f"{workload} --trace {trace} exited "
                         f"{done.returncode} without a record:\n{done.stdout}")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    sys.stdout.flush()
    with open(record_path, encoding="utf-8") as fh:
        record = json.load(fh)
    record["exit_code"] = done.returncode
    record["emitted"] = sorted(json.loads(lines[-1])["metrics"])
    return record


def full_run(benchmark: dict, seed: int, out: str) -> int:
    began = time.perf_counter()
    run: dict = {"seed": seed, "workloads": {}}
    failed = []
    for workload in (w["name"] for w in benchmark["workloads"]):
        entry: dict = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            record = _child(workload, seed, trace, [])
            if record["exit_code"]:
                failed.append(f"{workload} --trace {trace}")
            entry[key] = {name: reading["value"] for name, reading
                          in record["result"]["metrics"].items()}
            entry[f"{key}_detail"] = record["detail"]
            if trace == 0:
                entry["attempted"] = record["result"]["attempted"]
                entry["failed"] = record["result"]["failed"]
                entry["sim_digest"] = record["detail"]["sim_digest"]
                for field in ("git_sha", "python", "nproc", "numpy"):
                    run[field] = record[field]
                entry["loadavg_1m_at_start"] = record["loadavg_1m_at_start"]
            else:
                entry["per_layer_measured"] = record["measured"]
        run["workloads"][workload] = entry
    run["wall_s"] = time.perf_counter() - began
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(run, fh, indent=1)
    print(f"# full run: {run['wall_s']:.1f} s wall, record in {out}")
    for name in failed:
        print(f"# FAILED: {name}")
    return 1 if failed else 0


def selftest(benchmark: dict, extra: dict) -> int:
    """Every workload at ~1/20 size: do the declarations and the
    emissions agree, and do the exact counts really repeat?"""
    began = time.perf_counter()
    tiny = ["--tiny", "--seconds", "1", "--setup-children", "0"]
    declared = {0: sorted(m["name"] for m in benchmark["end_to_end"]),
                1: sorted(m["name"] for m in benchmark["per_layer"])}
    workloads = [w["name"] for w in benchmark["workloads"]]
    problems = []
    if sorted(workloads) != sorted(extra["workloads"]):
        problems.append("spec.json and BENCHMARK.json name different workloads")
    if declared[1] != sorted(extra["per_layer"]):
        problems.append("spec.json and BENCHMARK.json name different "
                        "per-layer metrics")
    for name in workloads + declared[0] + declared[1]:
        if not _NAME.fullmatch(name):
            problems.append(f"name {name!r} has characters outside "
                            "[A-Za-z0-9_.-]")
    exact = sorted(n for n, m in extra["per_layer"].items()
                   if m["flag"] == "exact")
    measured_anywhere: set[str] = set()
    for workload in workloads:
        simulated = extra["workloads"][workload]["module"] == "ingest"
        records = [_child(workload, 16, 0, tiny), _child(workload, 16, 1, tiny)]
        if simulated:
            records.append(_child(workload, 16, 1, tiny))
        for record in records:
            where = f"{workload} --trace {record['trace']}"
            if record["exit_code"]:
                problems.append(f"{where} exited {record['exit_code']}: "
                                f"{record['detail']['problems']}")
            if record["emitted"] != declared[record["trace"]]:
                problems.append(f"{where} emitted a different set of metric "
                                "names than BENCHMARK.json declares")
        for record in records[1:]:
            metrics = record["result"]["metrics"]
            measured_anywhere.update(record["measured"])
            shares = sum(reading["value"] for name, reading in metrics.items()
                         if name.endswith(".self_share"))
            if abs(shares - 1.0) > 0.01:
                problems.append(f"{workload}: layer self_shares sum to "
                                f"{shares:.4f}, not 1")
        if simulated:
            first, second = (r["result"]["metrics"] for r in records[1:])
            for name in exact:
                if first[name]["value"] != second[name]["value"]:
                    problems.append(
                        f"{workload}: exact metric {name} did not repeat: "
                        f"{first[name]['value']!r} vs {second[name]['value']!r}")
    never = sorted(set(declared[1]) - measured_anywhere)
    if never:
        problems.append(f"declared but measured by no workload: {never}")
    for problem in problems:
        print(f"# SELFTEST FAILED: {problem}")
    print(f"# selftest: {len(workloads)} workloads, "
          f"{len(declared[0])} end-to-end and {len(declared[1])} per-layer "
          f"metrics, {time.perf_counter() - began:.1f} s, "
          f"{'FAILED' if problems else 'ok'}")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=16)
    parser.add_argument("--out", default=os.path.join(spec.OUT, "run.json"))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    benchmark, extra = spec.load()
    os.makedirs(spec.OUT, exist_ok=True)
    if args.selftest:
        return selftest(benchmark, extra)
    return full_run(benchmark, args.seed, args.out)


if __name__ == "__main__":
    raise SystemExit(main())
