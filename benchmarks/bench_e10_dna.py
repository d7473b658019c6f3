"""E10 — slide 13: "DNA sequencing and reconstruction using Hadoop tools".

Two levels, matching the repository's two MapReduce engines:

* the *real* k-mer counting pipeline (in-process engine) on synthetic
  shotgun reads — correctness against a reference counter plus the
  combiner's shuffle reduction;
* the same job shape at facility scale on the simulated cluster, where the
  k-mer expansion makes the shuffle the interesting phase.
"""

import statistics
from collections import Counter

import pytest

from repro.core import Facility
from repro.mapreduce import run_local
from repro.simkit import RandomSource
from repro.simkit.units import GB, fmt_bytes, fmt_duration
from repro.workloads import (
    dna_cluster_job,
    generate_genome,
    generate_reads,
    kmer_count_job,
    reads_to_splits,
)

K = 21


def test_e10_real_kmer_pipeline(benchmark, report):
    rng = RandomSource(101)
    genome = generate_genome(30_000, rng)
    reads = generate_reads(genome, 6_000, read_length=100, error_rate=0.01, rng=rng)
    splits = reads_to_splits(reads, 500)

    result = benchmark.pedantic(
        lambda: run_local(kmer_count_job(K), splits, reducers=8),
        rounds=1, iterations=1,
    )

    reference = Counter()
    for read in reads:
        for i in range(len(read) - K + 1):
            reference[read[i : i + K]] += 1
    counts = result.as_dict()
    total_bases = sum(len(r) for r in reads)
    report(
        "E10", "real k-mer counting (in-process Hadoop data path)",
        [
            ("input", "-", f"{len(reads):,} reads, {total_bases / 1e6:.1f} Mbp"),
            ("distinct k-mers", "= reference", f"{len(counts):,}"),
            ("combiner shuffle reduction", "large",
             f"{result.map_output_records:,} -> {result.shuffle_records:,} records"),
        ],
    )
    assert counts == dict(reference)
    assert result.shuffle_records < result.map_output_records


def test_e10_error_kmers_are_low_multiplicity(benchmark, report):
    """The assembly-relevant signal: true k-mers appear ~coverage times,
    error k-mers once or twice — the histogram valley real assemblers cut at."""
    import numpy as np

    def run():
        rng = RandomSource(7)
        genome = generate_genome(5_000, rng)
        reads = generate_reads(genome, 2_000, read_length=100, error_rate=0.01,
                               rng=rng)
        result = run_local(kmer_count_job(K), reads_to_splits(reads, 250),
                           reducers=8)
        return genome, result

    genome, result = benchmark.pedantic(run, rounds=1, iterations=1)
    genome_kmers = {genome[i : i + K] for i in range(len(genome) - K + 1)}
    true_counts, error_counts = [], []
    for kmer, count in result.output:
        (true_counts if kmer in genome_kmers else error_counts).append(count)
    true_med = float(np.median(true_counts))
    err_med = float(np.median(error_counts))
    report(
        "E10b", "k-mer spectrum: signal vs sequencing errors",
        [
            ("median multiplicity (true k-mers)", "~coverage (40x)", f"{true_med:.0f}"),
            ("median multiplicity (error k-mers)", "~1", f"{err_med:.0f}"),
        ],
    )
    assert true_med > 10 * err_med


#: E10c's job time is bimodal over seeds (the reduce phase takes either
#: about 6 or about 12 simulated minutes), so one seed says little: the
#: table reports the spread over these seeds and how many fall in each mode.
E10C_SEEDS = range(10, 16)


def _cluster_dna_job(seed: int):
    facility = Facility(seed=seed)
    holder = {}

    def scenario():
        yield facility.load_into_hdfs("/data/reads", 200 * GB)
        holder["result"] = yield facility.mapreduce.submit(
            dna_cluster_job("/data/reads", reduces=32)
        )

    p = facility.sim.process(scenario())
    facility.run()
    assert not p.failed, p.exception
    return holder["result"]


def test_e10_cluster_scale_dna_job(benchmark, report):
    results = benchmark.pedantic(
        lambda: {seed: _cluster_dna_job(seed) for seed in E10C_SEEDS},
        rounds=1, iterations=1,
    )
    times = sorted(result.duration for result in results.values())
    # A seed belongs to the mode whose extreme it is nearer.
    split = (times[0] + times[-1]) / 2
    fast = sum(t < split for t in times)
    seeds = f"seeds {E10C_SEEDS[0]}-{E10C_SEEDS[-1]}"
    report(
        "E10c", "DNA k-mer job at facility scale (200 GB of reads)",
        [
            (f"job time, seed {E10C_SEEDS[0]}", "-",
             fmt_duration(results[E10C_SEEDS[0]].duration)),
            (f"job time min/median/max ({seeds})", "-",
             " / ".join(fmt_duration(t) for t in
                        (times[0], statistics.median(times), times[-1]))),
            ("seeds in the fast / slow mode", "-",
             f"{fast} / {len(times) - fast}"),
            ("shuffle volume (least over seeds)", "> input (k-mer expansion)",
             fmt_bytes(min(r.bytes_shuffled for r in results.values()))),
            ("node-local maps (least over seeds)", "high",
             f"{min(r.locality_fraction for r in results.values()):.0%}"),
        ],
    )
    for result in results.values():
        assert result.bytes_shuffled > result.bytes_input
        assert result.locality_fraction > 0.7


def test_e10_reconstruction_from_spectrum(benchmark, report):
    """The 'reconstruction' in 'DNA sequencing and reconstruction': a de
    Bruijn assembly over the MapReduce spectrum rebuilds the genome."""
    from repro.workloads import assemble

    def run():
        rng = RandomSource(202)
        genome = generate_genome(10_000, rng)
        reads = generate_reads(genome, 4_000, read_length=100, error_rate=0.01,
                               rng=rng)
        spectrum = run_local(kmer_count_job(K), reads_to_splits(reads, 500),
                             reducers=8).as_dict()
        return genome, assemble(spectrum, min_multiplicity=5)

    genome, result = benchmark.pedantic(run, rounds=1, iterations=1)
    identity = result.longest / len(genome)
    report(
        "E10d", "de-novo reconstruction (40x coverage, 1% errors)",
        [
            ("contigs", "~1 (repeat-free genome)", str(len(result.contigs))),
            ("N50", "~genome length", f"{result.n50():,} bp"),
            ("longest contig vs genome", ">= 95%", f"{identity:.1%}"),
            ("error k-mers discarded", "the 1x tail", f"{result.dropped_kmers:,}"),
        ],
    )
    assert identity >= 0.95
    assert result.dropped_kmers > 0
