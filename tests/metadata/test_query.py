"""Tests for the query language."""

import pytest

from repro.metadata import FieldSpec, MetadataStore, Q, Schema


@pytest.fixture
def store():
    s = MetadataStore()
    s.register_project(
        "zf", Schema("zf", [FieldSpec("plate", "int", required=True),
                            FieldSpec("wavelength", "int")])
    )
    s.register_project("katrin", Schema("k", [], allow_extra=True))
    for i in range(20):
        s.register_dataset(
            f"img-{i:02d}", "zf", f"adal://lsdf/{i}", 1000 + i, "c",
            {"plate": i % 4, "wavelength": 400 + (i % 3) * 40}, created=float(i),
        )
    s.register_dataset("run-1", "katrin", "adal://lsdf/k1", 5_000_000, "c", {})
    s.add_processing("img-05", "segment", {}, {}, 0.0, 1.0)
    s.tag("img-05", "done")
    s.tag("img-06", "done")
    return s


class TestComparisons:
    def test_eq(self, store):
        assert store.count(Q.field("plate") == 2) == 5

    def test_ne(self, store):
        assert store.count(Q.project("zf") & (Q.field("plate") != 2)) == 15

    def test_ordering_ops(self, store):
        assert store.count(Q.field("wavelength") >= 480) == 6
        assert store.count(Q.field("wavelength") < 440) == 7
        assert store.count(Q.field("wavelength") <= 440) == 14
        assert store.count(Q.field("wavelength") > 480) == 0

    def test_top_level_fields(self, store):
        assert store.count(Q.field("size") > 4_000_000) == 1
        assert store.count(Q.field("dataset_id") == "img-00") == 1
        assert store.count(Q.field("created") >= 18.0) == 2

    def test_missing_field_never_matches(self, store):
        # katrin record has no plate; comparisons are False, not errors.
        assert store.count(Q.project("katrin") & (Q.field("plate") == 0)) == 0

    def test_type_mismatch_is_false(self, store):
        assert store.count(Q.field("plate") == "two") == 0
        assert store.count(Q.field("plate") > "two") == 0


class TestCombinators:
    def test_and(self, store):
        q = (Q.field("plate") == 1) & (Q.field("wavelength") == 440)
        hits = store.query(q)
        assert all(r.basic["plate"] == 1 and r.basic["wavelength"] == 440 for r in hits)

    def test_or(self, store):
        q = (Q.field("plate") == 0) | (Q.field("plate") == 1)
        assert store.count(q) == 10

    def test_not(self, store):
        q = Q.project("zf") & ~(Q.field("plate") == 0)
        assert store.count(q) == 15

    def test_match_all(self, store):
        assert store.count(Q.all()) == 21


class TestSpecials:
    def test_tag_query(self, store):
        assert store.count(Q.tag("done")) == 2

    def test_project_query(self, store):
        assert store.count(Q.project("katrin")) == 1

    def test_has_step(self, store):
        assert store.count(Q.has_step("segment")) == 1
        assert store.count(Q.has_step("ghost")) == 0


class TestIndexUsage:
    def test_and_walks_its_most_selective_term(self, store):
        store.index_field("plate")
        q = Q.tag("done") & (Q.field("plate") == 1)
        assert q.candidates(store) == [["img-05", "img-06"]]  # 2 tagged < 5 on plate 1
        assert [r.dataset_id for r in store.query(q)] == ["img-05"]

    def test_or_union_only_when_all_indexed(self, store):
        q_indexed = Q.tag("done") | Q.project("katrin") | Q.tag("done")
        assert q_indexed.candidates(store) is not None
        assert [r.dataset_id for r in store.query(q_indexed)] == [
            "img-05", "img-06", "run-1"]  # merged in id order, each once
        q_mixed = Q.tag("done") | (Q.field("wavelength") > 0)
        assert q_mixed.candidates(store) is None
        assert store.count(q_mixed) == 20

    def test_not_is_full_scan(self, store):
        assert (~Q.tag("done")).candidates(store) is None

    def test_unknown_operator_rejected(self):
        from repro.metadata.query import FieldCmp

        with pytest.raises(ValueError):
            FieldCmp("x", "~=", 1)

    def test_results_identical_with_and_without_index(self, store):
        q = (Q.field("plate") == 3) & (Q.field("wavelength") == 400)
        before = [r.dataset_id for r in store.query(q)]
        store.index_field("plate")
        store.index_field("wavelength")
        after = [r.dataset_id for r in store.query(q)]
        assert before == after
