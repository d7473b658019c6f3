"""Workload generators and community profiles from the paper.

* :mod:`repro.workloads.zebrafish` — the Institute of Toxicology and
  Genetics' high-throughput microscopy screens (slide 5), at the paper's
  2011 rate and the projected 2012/2014 rates.
* :mod:`repro.workloads.dna` — DNA sequencing on Hadoop (slide 13): a real
  synthetic-read generator plus k-mer counting jobs for both the local and
  the simulated MapReduce engines.
* :mod:`repro.workloads.viz3d` — the 3D biomedical visualisation job
  ("processing 1 TB dataset in 20 min", slide 13).
* :mod:`repro.workloads.communities` — storage-growth profiles for the
  communities of slides 5/14 (ITG, KATRIN, ANKA, climate, geophysics),
  feeding the capacity planner (E2).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.workloads.zebrafish": (
        "ZEBRAFISH_PROJECT", "zebrafish_basic_schema", "zebrafish_microscopes",
        "zebrafish_processing_schemas"),
    "repro.workloads.dna": (
        "dna_cluster_job", "generate_genome", "generate_reads",
        "kmer_count_job", "reads_to_splits"),
    "repro.workloads.anka": (
        "ANKA_PROJECT", "AnkaBeamline", "AnkaConfig", "AnkaScan",
        "anka_basic_schema", "tomo_reconstruction_job"),
    "repro.workloads.assembly": (
        "AssemblyResult", "DeBruijnGraph", "assemble"),
    "repro.workloads.viz3d": ("viz3d_cluster_job",),
    "repro.workloads.communities": ("COMMUNITIES", "CommunityProfile"),
    "repro.workloads.katrin": (
        "KATRIN_PROJECT", "KatrinConfig", "KatrinDaq", "KatrinRun",
        "katrin_basic_schema", "reprocessing_campaign"),
})

__all__ = [
    "ANKA_PROJECT",
    "AnkaBeamline",
    "AnkaConfig",
    "AnkaScan",
    "AssemblyResult",
    "COMMUNITIES",
    "anka_basic_schema",
    "tomo_reconstruction_job",
    "CommunityProfile",
    "DeBruijnGraph",
    "assemble",
    "KATRIN_PROJECT",
    "KatrinConfig",
    "KatrinDaq",
    "KatrinRun",
    "katrin_basic_schema",
    "reprocessing_campaign",
    "ZEBRAFISH_PROJECT",
    "dna_cluster_job",
    "generate_genome",
    "generate_reads",
    "kmer_count_job",
    "reads_to_splits",
    "viz3d_cluster_job",
    "zebrafish_basic_schema",
    "zebrafish_microscopes",
    "zebrafish_processing_schemas",
]
