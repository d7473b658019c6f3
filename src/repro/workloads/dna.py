"""DNA sequencing workload (slide 13: "DNA sequencing and reconstruction
using Hadoop tools").

Two halves:

* a **real** pipeline at laptop scale — synthetic genome + error-free/noisy
  read generation and a k-mer counting :class:`~repro.mapreduce.local.LocalJob`
  (k-mer spectra are the first stage of de-novo assembly, the canonical
  "Hadoop tools for sequencing" workload of the era, cf. Contrail/CloudBurst);
* a **cluster-sim** :class:`~repro.mapreduce.sim.JobSpec` with a byte-rate
  cost model for running the same shape at facility scale (E10).
"""

from __future__ import annotations

from typing import Optional

from repro.simkit.rand import RandomSource
from repro.mapreduce.local import LocalJob
from repro.mapreduce.sim import JobSpec


def generate_genome(length: int, rng: Optional[RandomSource] = None) -> str:
    """A uniform-random genome string of the given length."""
    if length < 1:
        raise ValueError("genome length must be >= 1")
    rng = rng or RandomSource(0)
    return "".join(rng.choice("ACGT") for _ in range(length))


def generate_reads(
    genome: str,
    n_reads: int,
    read_length: int = 100,
    error_rate: float = 0.0,
    rng: Optional[RandomSource] = None,
) -> list[str]:
    """Shotgun reads: uniform start positions, optional substitution errors
    (each base is replaced by a uniform-random base with ``error_rate``)."""
    if read_length > len(genome):
        raise ValueError("read_length exceeds genome length")
    rng = rng or RandomSource(1)
    reads = []
    for _ in range(n_reads):
        start = rng.integers(0, len(genome) - read_length + 1)
        read = genome[start : start + read_length]
        if error_rate > 0:
            read = "".join(rng.choice("ACGT") if rng.uniform() < error_rate
                           else base for base in read)
        reads.append(read)
    return reads


def kmer_count_job(k: int = 21) -> LocalJob:
    """K-mer counting as a MapReduce job (map: emit k-mers; reduce: sum)."""
    if k < 1:
        raise ValueError("k must be >= 1")

    def map_fn(_read_id, read: str):
        for i in range(len(read) - k + 1):
            yield read[i : i + k], 1

    def combine_fn(kmer, counts):
        yield kmer, sum(counts)

    def reduce_fn(kmer, counts):
        yield sum(counts)

    return LocalJob(map_fn, reduce_fn, combine_fn=combine_fn, name=f"kmer-{k}")


def reads_to_splits(reads: list[str], reads_per_split: int = 1000) -> list[list[tuple[int, str]]]:
    """Package reads as MapReduce input splits (block analogues)."""
    records = list(enumerate(reads))
    return [records[i : i + reads_per_split] for i in range(0, len(records), reads_per_split)]


def dna_cluster_job(
    input_path: str,
    name: str = "dna-kmer",
    reduces: int = 32,
) -> JobSpec:
    """Facility-scale k-mer counting cost model.

    Calibration: counting k-mers is string-shuffling-bound, ~50 MB/s/core
    in 2011-era Hadoop (2e-8 s/B); intermediate k-mer streams are larger
    than the input before combining, ~1.4x after the combiner.
    """
    return JobSpec(
        name=name,
        input_path=input_path,
        map_cpu_per_byte=2e-8,
        map_output_ratio=1.4,
        reduces=reduces,
        reduce_cpu_per_byte=1e-8,
        reduce_output_ratio=0.3,
    )
