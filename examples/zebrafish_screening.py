#!/usr/bin/env python3
"""The zebrafish screening workflow, end to end (slides 5, 8, 12).

The production loop the paper describes for the Institute of Toxicology and
Genetics: high-throughput microscopes stream 4 MB embryo images into the
facility; each frame is registered with its acquisition parameters as basic
metadata; a biologist tags frames of interest in the DataBrowser, which
triggers the segmentation/counting workflow; results land back in the
metadata repository as chained processing records.

Run:  python examples/zebrafish_screening.py
"""

import zlib

from repro.core import Facility
from repro.databrowser import TriggerRule
from repro.metadata import Q
from repro.simkit.units import MINUTE, fmt_bytes
from repro.workflow import FunctionActor, WorkflowGraph
from repro.workloads import zebrafish_microscopes


def build_analysis_workflow() -> WorkflowGraph:
    """Segment -> count-cells -> classify, the standard screen analysis."""
    g = WorkflowGraph("zf-analysis")
    g.add(FunctionActor(
        "segment",
        lambda data_url, threshold: {"mask_url": data_url + ".mask"},
        inputs=("data_url",), outputs=("mask_url",),
        params={"threshold": 0.35},
    ))
    g.add(FunctionActor(
        "count",
        # A stand-in for the real cell counter: deterministic per-URL count
        # (crc32, not the per-process salted hash()).
        lambda mask_url: {"cells": 20 + zlib.crc32(mask_url.encode()) % 40},
        inputs=("mask_url",), outputs=("cells",),
    ))
    g.add(FunctionActor(
        "classify",
        lambda cells: {"phenotype": "abnormal" if cells < 30 else "normal"},
        inputs=("cells",), outputs=("phenotype",),
    ))
    g.connect("segment", "mask_url", "count", "mask_url")
    g.connect("count", "cells", "classify", "cells")
    return g


def main() -> None:
    facility = Facility(seed=7)

    # -- acquire 15 minutes of screening data --------------------------------
    pipeline = facility.ingest_pipeline(zebrafish_microscopes(instruments=4))
    report = pipeline.run(duration=15 * MINUTE)
    print(f"acquired {report.frames_ingested} frames "
          f"({fmt_bytes(report.bytes_ingested)}) -> all registered")

    # -- register the tag-triggered analysis ------------------------------------
    graph = build_analysis_workflow()
    facility.triggers.register(TriggerRule(
        tag="analyze",
        graph=graph,
        inputs_fn=lambda record: {("segment", "data_url"): record.url},
        done_tag="analyzed",
        project="zebrafish",
    ))

    # -- a biologist finds one plate's images and tags them ----------------------
    browser = facility.browser
    cohort = browser.find(Q.project("zebrafish") & (Q.field("plate") == 0)
                          & (Q.field("channel") == 0))
    print(f"plate 0, channel 0: {len(cohort)} frames; tagging for analysis...")
    for record in cohort[:50]:
        browser.tag(record.dataset_id, "analyze")

    # -- inspect the outcome -----------------------------------------------------------
    analyzed = browser.tagged("analyzed")
    abnormal = [
        r for r in analyzed
        if r.latest_result("zf-analysis/classify").results["phenotype"] == "abnormal"
    ]
    print(f"workflows executed: {facility.triggers.stats()['executions']} "
          f"({facility.triggers.stats()['succeeded']} succeeded)")
    print(f"analyzed: {len(analyzed)} frames, {len(abnormal)} abnormal phenotypes")

    sample = analyzed[0]
    # The steps' start/finish stamps are the workflow director's wall
    # clock, so they are left out: every run prints the same bytes.
    print(f"\nprocessing history of {sample.dataset_id}:")
    for step in sample.processing:
        print(f"  {step.name} ({step.status})")
    chain = sample.chain(sample.processing[-1].step_id)
    print("chain:", " -> ".join(step.name.split("/")[1] for step in chain))


if __name__ == "__main__":
    main()
