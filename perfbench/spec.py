"""What the benchmark declares: names, units, bounds, sizes.

``BENCHMARK.json`` (repo root) is the contract the driver reads — command,
workloads, end-to-end metrics with their regression bounds, per-layer
metric names.  Its schema is fixed, so everything else the benchmark has
to pin down lives beside this module in ``spec.json``: each workload's
sizes (full and ``tiny``), and for each per-layer metric whether it is
``exact`` on the simulated workloads and which end-to-end metric it is
expected to move.
"""

from __future__ import annotations

import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")


def load() -> tuple[dict, dict]:
    """``(BENCHMARK.json, spec.json)`` as dicts."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    with open(os.path.join(HERE, "spec.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return benchmark, spec
