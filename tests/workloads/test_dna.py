"""Tests for the DNA sequencing workload (real pipeline + cost model)."""

import statistics

import pytest

from repro.simkit import RandomSource
from repro.mapreduce import run_local
from repro.workloads import (
    dna_cluster_job,
    generate_genome,
    generate_reads,
    kmer_count_job,
    reads_to_splits,
)


class TestGenerators:
    def test_genome_alphabet_and_length(self):
        genome = generate_genome(500, RandomSource(1))
        assert len(genome) == 500
        assert set(genome) <= set("ACGT")

    def test_genome_validation(self):
        with pytest.raises(ValueError):
            generate_genome(0)

    def test_genome_deterministic(self):
        assert generate_genome(100, RandomSource(5)) == generate_genome(100, RandomSource(5))

    def test_reads_are_substrings_when_error_free(self):
        genome = generate_genome(1000, RandomSource(1))
        reads = generate_reads(genome, 50, read_length=80, rng=RandomSource(2))
        assert len(reads) == 50
        assert all(len(r) == 80 for r in reads)
        assert all(r in genome for r in reads)

    def test_errors_change_reads(self):
        genome = generate_genome(1000, RandomSource(1))
        noisy = generate_reads(genome, 30, read_length=100, error_rate=0.2,
                               rng=RandomSource(3))
        assert any(r not in genome for r in noisy)

    def test_read_length_validation(self):
        with pytest.raises(ValueError):
            generate_reads("ACGT", 1, read_length=10)


class TestKmerCounting:
    def test_kmer_counts_match_reference(self):
        genome = generate_genome(400, RandomSource(1))
        reads = generate_reads(genome, 100, read_length=50, rng=RandomSource(2))
        k = 11
        result = run_local(kmer_count_job(k), reads_to_splits(reads, 25), reducers=4)
        # Reference count.
        from collections import Counter

        reference = Counter()
        for read in reads:
            for i in range(len(read) - k + 1):
                reference[read[i : i + k]] += 1
        assert result.as_dict() == dict(reference)

    def test_total_kmers_conserved(self):
        genome = generate_genome(300, RandomSource(4))
        reads = generate_reads(genome, 40, read_length=60, rng=RandomSource(5))
        k = 21
        result = run_local(kmer_count_job(k), reads_to_splits(reads, 10), reducers=8)
        total = sum(v for _k, v in result.output)
        assert total == 40 * (60 - k + 1)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            kmer_count_job(0)

    def test_coverage_peaks_match_depth(self):
        """Deep coverage: k-mers from the genome appear ~coverage times."""
        genome = generate_genome(200, RandomSource(7))
        n_reads, read_len = 400, 100
        reads = generate_reads(genome, n_reads, read_length=read_len,
                               rng=RandomSource(8))
        result = run_local(kmer_count_job(21), reads_to_splits(reads, 50), reducers=4)
        counts = [v for _k, v in result.output]
        coverage = n_reads * read_len / len(genome)
        # Median k-mer multiplicity should be within 2x of coverage.
        assert coverage / 2 < statistics.median(counts) < coverage * 2


class TestClusterJob:
    def test_spec_shape(self):
        spec = dna_cluster_job("/data/reads", reduces=16)
        assert spec.input_path == "/data/reads"
        assert spec.reduces == 16
        assert spec.map_output_ratio > 1.0  # k-mers expand the input
