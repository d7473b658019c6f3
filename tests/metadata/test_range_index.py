"""Field indexes: equality and range pruning for metadata queries.

An indexed term must return exactly the full-scan answer while the store
confirms (``matches()``) only the records the index proposed; values an
index cannot order or hash must send the term back to the scan, never
corrupt results.  Pruning is observed through :class:`Touched`, which
counts the records the store asked the query about.
"""

import pytest

from repro.metadata import FieldSpec, MetadataStore, Q, Schema
from repro.metadata.query import FieldCmp, Query


class Touched(Query):
    """Delegates to ``inner``, counting the records ``matches()`` saw."""

    def __init__(self, inner):
        self.inner = inner
        self.count = 0

    def matches(self, record):
        self.count += 1
        return self.inner.matches(record)

    def candidates(self, store):
        return self.inner.candidates(store)


def ids(store, q, limit=None):
    """(matching ids, records touched to find them)."""
    probe = Touched(q)
    return [r.dataset_id for r in store.query(probe, limit)], probe.count


def _zf_store():
    s = MetadataStore()
    s.register_project(
        "zf", Schema("zf", [FieldSpec("plate", "int", required=True),
                            FieldSpec("wavelength", "int")]))
    for i in range(20):
        s.register_dataset(
            f"img-{i:02d}", "zf", f"adal://lsdf/{i}", 1000 + i, "c",
            {"plate": i % 4, "wavelength": 400 + (i % 3) * 40},
            created=float(i))
    return s


@pytest.fixture
def store():
    s = _zf_store()
    s.index_field("wavelength")
    return s


def _free_store(values):
    s = MetadataStore()
    s.register_project("free", Schema("free", [], allow_extra=True))
    for dataset_id, value in values:
        s.register_dataset(dataset_id, "free", f"adal://x/{dataset_id}", 1, "c",
                           {"v": value})
    s.index_field("v")
    return s


class TestOrderedIndexUnit:
    def test_range_slicing(self):
        s = _free_store([("c", 3), ("a", 1), ("b", 2), ("b2", 2), ("d", 5)])
        assert ids(s, Q.field("v") >= 2) == (["b", "b2", "c", "d"], 4)
        assert ids(s, Q.field("v") > 2) == (["c", "d"], 2)
        assert ids(s, Q.field("v") < 2) == (["a"], 1)
        assert ids(s, Q.field("v") <= 2) == (["a", "b", "b2"], 3)
        assert ids(s, Q.field("v") > 5) == ([], 0)
        assert ids(s, Q.field("v") < 1) == ([], 0)
        assert ids(s, Q.field("v") == 2) == (["b", "b2"], 2)

    def test_unknown_op_unanswered(self):
        s = _free_store([("a", 1), ("b", 2)])
        assert ids(s, Q.field("v") != 1) == (["b"], 2)  # scanned, still right

    def test_mixed_type_insert_disables(self):
        s = _free_store([("a", 1), ("b", "zebra")])  # int vs str: incomparable
        assert ids(s, Q.field("v") >= 0) == (["a"], 2)  # range terms scan
        assert ids(s, Q.field("v") == "zebra") == (["b"], 1)  # equality prunes

    def test_incomparable_probe_unanswered_but_not_disabling(self):
        s = _free_store([("a", 1), ("b", 2)])
        assert ids(s, Q.field("v") >= "zebra") == ([], 2)
        assert ids(s, Q.field("v") >= 2) == (["b"], 1)

    def test_unhashable_probe_answers_like_the_scan(self):
        s = _free_store([("a", 1), ("b", 2), ("c", [1, 2])])
        for op in ("==", ">=", "<"):
            assert ids(s, FieldCmp("v", op, [1, 2]))[0] == (
                ["c"] if op != "<" else [])
        assert ids(s, Q.field("v") == 2) == (["b"], 1)

    def test_nan_and_unhashable_values_never_corrupt_ranges(self):
        s = _free_store([("a", 3), ("b", float("nan")), ("c", 1), ("d", 2)])
        assert ids(s, Q.field("v") >= 2) == (["a", "d"], 2)
        s = _free_store([("a", 3), ("b", {"k": 1}), ("c", 1)])
        assert ids(s, Q.field("v") >= 2)[0] == ["a"]
        assert ids(s, Q.field("v") == {"k": 1})[0] == ["b"]

    def test_top_level_field_index_agrees_with_matches(self):
        s = _free_store([("a", 1), ("b", 2)])
        s.index_field("size")  # resolved like matches(): the attribute
        assert ids(s, Q.field("size") >= 1) == (["a", "b"], 2)
        assert ids(s, Q.field("size") > 1) == ([], 0)


class TestRangePruning:
    def test_candidates_for_each_op(self, store):
        def where(*residues):  # wavelength = 400 + (i % 3) * 40
            return [f"img-{i:02d}" for i in range(20) if i % 3 in residues]

        assert ids(store, Q.field("wavelength") >= 480) == (where(2), 6)
        assert ids(store, Q.field("wavelength") > 480) == ([], 0)
        assert ids(store, Q.field("wavelength") < 440) == (where(0), 7)
        assert ids(store, Q.field("wavelength") <= 440) == (where(0, 1), 14)

    def test_unindexed_field_still_full_scans(self, store):
        hits, touched = ids(store, Q.field("plate") >= 2)
        assert (len(hits), touched) == (10, 20)

    def test_pruned_results_equal_full_scan(self, store):
        q = Q.field("wavelength") >= 440
        assert ids(store, q)[0] == ids(_zf_store(), q)[0]

    def test_and_drives_its_shortest_stream(self, store):
        store.index_field("plate")
        q = (Q.field("wavelength") >= 480) & (Q.field("plate") == 2)
        hits, touched = ids(store, q)
        assert hits == [f"img-{i:02d}" for i in range(20)
                        if i % 3 == 2 and i % 4 == 2]
        assert touched == 5  # the plate == 2 postings, not the 6 >= 480 ones

    def test_limit_stops_the_walk(self, store):
        hits, touched = ids(store, Q.field("wavelength") <= 440, limit=3)
        assert (hits, touched) == (["img-00", "img-01", "img-03"], 3)
        assert ids(store, Q.field("plate") == 3, limit=2) == (
            ["img-03", "img-07"], 8)  # unindexed: scans until the 2nd hit
        assert ids(store, Q.all(), limit=0) == ([], 0)

    def test_index_maintained_by_later_registration(self, store):
        store.register_dataset(
            "img-99", "zf", "adal://lsdf/99", 9999, "c",
            {"plate": 0, "wavelength": 500})
        assert ids(store, Q.field("wavelength") > 480) == (["img-99"], 1)

    def test_out_of_order_ids_come_back_in_id_order(self, store):
        store.register_dataset(
            "img-0a", "zf", "adal://lsdf/0a", 1, "c",
            {"plate": 0, "wavelength": 480})
        hits, _ = ids(store, Q.field("wavelength") == 480)
        assert hits == sorted(hits) and "img-0a" in hits
        assert ids(store, Q.all())[0] == sorted(ids(store, Q.all())[0])

    def test_mixed_type_values_fall_back_to_scan(self):
        s = _free_store([("a", 10), ("b", "text")])
        assert ids(s, Q.field("v") >= 5) == (["a"], 2)
        assert ids(s, Q.field("v") == "text") == (["b"], 1)

    def test_index_field_backfills_existing_records(self, store):
        # The fixture indexed after its 20 registrations.
        hits, touched = ids(store, Q.field("wavelength") >= 440)
        assert (len(hits), touched) == (13, 13)
