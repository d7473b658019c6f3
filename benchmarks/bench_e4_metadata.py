"""E4 — slide 8: the project metadata DB.

Paper claims are qualitative ("metadata is essential", "invisible data is
lost data", chained processing records).  Measured here:

* registration and query throughput at screening-campaign scale;
* index-assisted vs full-scan query speedup;
* the findability experiment: fraction of data retrievable by content
  criteria *with* metadata vs *without* (where only path listing exists);
* chained processing-record reconstruction cost.
"""

import time

import pytest

from repro.metadata import MetadataStore, Q
from repro.metadata.query import Query
from repro.workloads import zebrafish_basic_schema

N_RECORDS = 30_000


class _Touched(Query):
    """Wraps a query to count the records the store confirmed against it."""

    def __init__(self, inner):
        self.inner = inner
        self.count = 0

    def matches(self, record):
        self.count += 1
        return self.inner.matches(record)

    def candidates(self, store):
        return self.inner.candidates(store)


def _populate(n=N_RECORDS):
    store = MetadataStore()
    store.register_project("zebrafish", zebrafish_basic_schema())
    for i in range(n):
        store.register_dataset(
            f"img-{i:06d}", "zebrafish", f"adal://lsdf/zf/{i}", 4_000_000, f"c{i}",
            {
                "plate": i % 40,
                "well": f"A{i % 12:02d}",
                "channel": i % 4,
                "wavelength": 400 + (i % 4) * 40,
                "z_plane": i % 6,
                "timepoint": i // 4000,
            },
            created=float(i),
        )
    return store


def test_e4_registration_and_query_scale(benchmark, report):
    t0 = time.perf_counter()
    store = benchmark.pedantic(_populate, rounds=1, iterations=1)
    register_rate = N_RECORDS / (time.perf_counter() - t0)

    # plate = i % 40 and z_plane = i % 6 are partially correlated (gcd 2):
    # plate 7 occurs 750 times; a third of those have z_plane 1.
    query = Q.project("zebrafish") & (Q.field("plate") == 7) & (Q.field("z_plane") == 1)

    t0 = time.perf_counter()
    scan_hits = store.query(query)
    scan_time = time.perf_counter() - t0

    store.index_field("plate")
    t0 = time.perf_counter()
    indexed_hits = store.query(query)
    indexed_time = time.perf_counter() - t0

    # The first page of the same answer: the walk stops at the tenth hit.
    limit = 10
    first_page = _Touched(query)
    t0 = time.perf_counter()
    limited_hits = store.query(first_page, limit=limit)
    limited_time = time.perf_counter() - t0

    report(
        "E4", f"metadata repository at {N_RECORDS:,} datasets",
        [
            ("registration rate", "-", f"{register_rate:,.0f} records/s"),
            ("query (full scan)", "-", f"{scan_time * 1e3:.1f} ms -> {len(scan_hits)} hits"),
            ("query (plate index)", "faster",
             f"{indexed_time * 1e3:.1f} ms ({scan_time / indexed_time:.0f}x speedup)"),
            ("indexed query, limit 10", "touches ~limit records",
             f"{limited_time * 1e6:.0f} us, {first_page.count} records touched"),
        ],
    )
    assert indexed_hits == scan_hits
    assert indexed_time < scan_time
    assert len(scan_hits) == N_RECORDS // 40 // 3
    assert limited_hits == scan_hits[:limit]
    # One plate-7 record in three has z_plane 1: ~3 candidates per hit.
    assert first_page.count <= 4 * limit


def test_e4_range_query_pruning(benchmark, report):
    """Ordered-index range predicates: bisect pruning vs the full scan.

    ``timepoint >= cutoff`` selects the newest ~7% of a campaign — the
    shape of every reprocessing selection — and must return the exact
    full-scan answer while touching only the records under the matching
    tail of the field index's sorted keys.
    """
    store = benchmark.pedantic(_populate, rounds=1, iterations=1)
    # timepoint = i // 4000 spans 0..7; >= 7 selects the last 2,000 records.
    query = Q.project("zebrafish") & (Q.field("timepoint") >= 7)

    t0 = time.perf_counter()
    scan_hits = store.query(query)
    scan_time = time.perf_counter() - t0

    store.index_field("timepoint")
    pruned = _Touched(query)
    t0 = time.perf_counter()
    pruned_hits = store.query(pruned)
    pruned_time = time.perf_counter() - t0

    report(
        "E4e", f"range-query pruning at {N_RECORDS:,} datasets",
        [
            ("range query (full scan)", "-",
             f"{scan_time * 1e3:.1f} ms -> {len(scan_hits)} hits"),
            ("range query (ordered index)", "faster",
             f"{pruned_time * 1e3:.1f} ms "
             f"({scan_time / pruned_time:.0f}x speedup)"),
            ("candidate set vs corpus", "tail only",
             f"{pruned.count} of {N_RECORDS:,} records considered"),
        ],
    )
    assert pruned_hits == scan_hits
    assert pruned_time < scan_time
    assert pruned.count == 2_000
    assert len(scan_hits) == 2_000


def test_e4_findability_with_vs_without_metadata(benchmark, report):
    """'Invisible (not-found, no-metadata) data is lost data': how much of a
    content-criteria cohort can be found with only paths vs with metadata?"""

    store = benchmark.pedantic(lambda: _populate(10_000), rounds=1, iterations=1)
    # Cohort: frames of plates 0-4 at wavelength 480 after timepoint 1 — the
    # kind of reprocessing selection slide 3 motivates.
    cohort = Q.project("zebrafish") & (Q.field("plate") < 5) \
        & (Q.field("wavelength") == 480) & (Q.field("timepoint") >= 1)
    with_metadata = store.query(cohort)

    # Without metadata, only the URL is known; wavelength/timepoint are not
    # in the path, so a path-only search finds nothing for this cohort.
    findable_by_path = [
        r for r in store.datasets() if "wavelength=480" in r.url and cohort.matches(r)
    ]
    report(
        "E4b", "findability: metadata DB vs bare file paths",
        [
            ("cohort size (with metadata)", "all of it", str(len(with_metadata))),
            ("found by path search alone", "lost data", str(len(findable_by_path))),
        ],
    )
    assert len(with_metadata) > 0
    assert len(findable_by_path) == 0


def test_e4_processing_chain_reconstruction(benchmark, report):
    """Chained METADATA 1..N records (the slide-8 figure) stay cheap to
    reconstruct even for deep chains."""

    def run():
        store = _populate(100)
        parent = None
        for step in range(200):
            record = store.add_processing(
                "img-000000", f"step-{step}", {"iteration": step},
                {"value": step * 1.5}, float(step), float(step) + 0.5,
                parent=parent,
            )
            parent = record.step_id
        return store, parent

    store, leaf = benchmark.pedantic(run, rounds=1, iterations=1)
    t0 = time.perf_counter()
    chain = store.get("img-000000").chain(leaf)
    elapsed = time.perf_counter() - t0
    report(
        "E4c", "processing-chain reconstruction (200 chained steps)",
        [("chain walk", "-", f"{elapsed * 1e3:.2f} ms for {len(chain)} records")],
    )
    assert len(chain) == 200
    assert [s.name for s in chain[:3]] == ["step-0", "step-1", "step-2"]


def test_e4_persistence_round_trip(benchmark, report, tmp_path):
    store = _populate(5_000)
    path = tmp_path / "repo.jsonl"

    def run():
        store.save(path)
        return MetadataStore.load(path)

    t0 = time.perf_counter()
    loaded = benchmark.pedantic(run, rounds=1, iterations=1)
    elapsed = time.perf_counter() - t0
    report(
        "E4d", "save+load 5,000 records (JSONL)",
        [("round trip", "-", f"{elapsed:.2f} s, "
          f"{path.stat().st_size / 1e6:.1f} MB on disk")],
    )
    assert len(loaded) == 5_000
    assert loaded.stats() == store.stats()
