"""Tests for the metadata repository (store-level behaviour + hypothesis)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metadata import (
    FieldSpec,
    MetadataStore,
    Q,
    Schema,
    SchemaError,
    UnknownDatasetError,
    WriteOnceError,
)
from repro.metadata.errors import MetadataError, UnknownProjectError

_SRC = str(Path(__file__).resolve().parents[2] / "src")


def _store():
    store = MetadataStore()
    store.register_project(
        "zebrafish",
        Schema("zf", [FieldSpec("plate", "int", required=True),
                      FieldSpec("well", "str", required=True)]),
        processing_schemas={
            "segment": Schema("seg", [FieldSpec("cells", "int", required=True)])
        },
    )
    return store


def _register(store, i, plate=1, tags=()):
    return store.register_dataset(
        f"img-{i}", "zebrafish", f"adal://lsdf/img{i}", 4_000_000, f"c{i}",
        {"plate": plate, "well": "A01"}, created=float(i), tags=tags,
    )


class TestProjects:
    def test_duplicate_project_rejected(self):
        store = _store()
        with pytest.raises(MetadataError):
            store.register_project("zebrafish", Schema("x", []))

    def test_unknown_project_raises(self):
        with pytest.raises(UnknownProjectError):
            _store().project("ghost")

    def test_projects_listed(self):
        assert _store().projects == ["zebrafish"]


class TestDatasets:
    def test_register_and_get(self):
        store = _store()
        _register(store, 1)
        record = store.get("img-1")
        assert record.project == "zebrafish"
        assert record.basic["plate"] == 1
        assert store.exists("img-1")
        assert len(store) == 1

    def test_write_once_enforced(self):
        store = _store()
        _register(store, 1)
        with pytest.raises(WriteOnceError):
            _register(store, 1)

    def test_schema_enforced_at_register(self):
        store = _store()
        with pytest.raises(SchemaError):
            store.register_dataset("bad", "zebrafish", "u", 1, "c", {"plate": "x"})

    def test_unknown_dataset_raises(self):
        with pytest.raises(UnknownDatasetError):
            _store().get("ghost")

    def test_by_url(self):
        store = _store()
        _register(store, 7)
        assert store.by_url("adal://lsdf/img7").dataset_id == "img-7"
        assert store.by_url("adal://nope") is None

    def test_project_dataset_count(self):
        store = _store()
        for i in range(3):
            _register(store, i)
        assert store.project("zebrafish").dataset_count == 3


class TestProcessing:
    def test_add_and_chain(self):
        store = _store()
        _register(store, 1)
        s1 = store.add_processing("img-1", "segment", {"alg": "otsu"},
                                  {"cells": 5}, 0.0, 1.0)
        s2 = store.add_processing("img-1", "stats", {}, {"mean": 1.0}, 1.0, 2.0,
                                  parent=s1.step_id)
        record = store.get("img-1")
        assert [s.name for s in record.chain(s2.step_id)] == ["segment", "stats"]

    def test_processing_schema_validated(self):
        store = _store()
        _register(store, 1)
        with pytest.raises(SchemaError):
            store.add_processing("img-1", "segment", {}, {"wrong": 1}, 0.0, 1.0)

    def test_unknown_parent_rejected(self):
        store = _store()
        _register(store, 1)
        with pytest.raises(KeyError):
            store.add_processing("img-1", "stats", {}, {}, 0.0, 1.0, parent="ghost")

    def test_step_ids_unique(self):
        store = _store()
        _register(store, 1)
        _register(store, 2)
        a = store.add_processing("img-1", "stats", {}, {}, 0.0, 1.0)
        b = store.add_processing("img-2", "stats", {}, {}, 0.0, 1.0)
        assert a.step_id != b.step_id


class TestTags:
    def test_tag_untag(self):
        store = _store()
        _register(store, 1)
        store.tag("img-1", "raw", "qc")
        assert store.get("img-1").tags == {"raw", "qc"}
        assert [r.dataset_id for r in store.tagged("qc")] == ["img-1"]
        store.untag("img-1", "qc")
        assert store.tagged("qc") == []

    def test_tags_at_registration(self):
        store = _store()
        _register(store, 1, tags=("raw",))
        assert store.tagged("raw")[0].dataset_id == "img-1"

    def test_untag_missing_is_noop(self):
        store = _store()
        _register(store, 1)
        store.untag("img-1", "never-had")


class TestIndexes:
    def test_index_built_over_existing_records(self):
        store = _store()
        for i in range(10):
            _register(store, i, plate=i % 2)
        store.index_field("plate")
        q = Q.field("plate") == 0
        assert q.candidates(store) is not None
        assert [r.dataset_id for r in store.query(q)] == [
            f"img-{i}" for i in range(0, 10, 2)]

    def test_index_maintained_for_new_records(self):
        store = _store()
        store.index_field("plate")
        _register(store, 1, plate=7)
        assert [r.dataset_id for r in store.query(Q.field("plate") == 7)] == ["img-1"]
        assert store.query(Q.field("plate") == 8) == []

    def test_unindexed_field_returns_none(self):
        assert (Q.field("well") == "A01").candidates(_store()) is None

    def test_limit_keeps_the_first_hits_in_id_order(self):
        store = _store()
        for i in (3, 1, 2):
            _register(store, i, plate=0)

        def ids(**kw):
            return [r.dataset_id for r in store.query(Q.all(), **kw)]

        assert ids() == ["img-1", "img-2", "img-3"]
        assert ids(limit=2) == ["img-1", "img-2"]
        assert ids(limit=0) == []
        with pytest.raises(ValueError):
            store.query(Q.all(), limit=-1)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        store = _store()
        for i in range(5):
            _register(store, i, plate=i, tags=("raw",))
        store.add_processing("img-2", "segment", {}, {"cells": 9}, 0.0, 1.0)
        store.index_field("plate")
        path = tmp_path / "md.jsonl"
        store.save(path)
        loaded = MetadataStore.load(path)
        assert len(loaded) == 5
        assert loaded.get("img-2").processing[0].results["cells"] == 9
        assert loaded.count(Q.field("plate") == 3) == 1
        assert loaded.tagged("raw")
        assert loaded.stats() == store.stats()

    def test_step_ids_keep_counting_after_load(self, tmp_path):
        store = _store()
        _register(store, 1)
        first = store.add_processing("img-1", "stats", {}, {}, 0.0, 1.0)
        path = tmp_path / "md.jsonl"
        store.save(path)
        loaded = MetadataStore.load(path)
        second = loaded.add_processing("img-1", "stats", {}, {}, 1.0, 2.0,
                                       parent=first.step_id)
        record = loaded.get("img-1")
        assert second.step_id != first.step_id
        assert [s.step_id for s in record.chain(second.step_id)] == [
            first.step_id, second.step_id]

    def test_load_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "bogus.jsonl"
        path.write_text('{"kind": "something-else"}\n')
        with pytest.raises(MetadataError):
            MetadataStore.load(path)

    def test_saved_bytes_do_not_depend_on_the_hash_seed(self, tmp_path):
        """Extra basic-metadata keys keep the record's order, not a set's."""
        script = (
            "import sys\n"
            "from repro.metadata import FieldSpec, MetadataStore, Schema\n"
            "store = MetadataStore()\n"
            "store.register_project('free', Schema(\n"
            "    'free', [FieldSpec('run', 'int')], allow_extra=True))\n"
            "store.register_dataset('d0', 'free', 'adal://lsdf/d0', 1, 'c',\n"
            "    {'run': 1, 'alpha': 1, 'beta': 2, 'gamma': 3})\n"
            "store.save(sys.argv[1])\n")
        path_var = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
        saved = []
        for seed in ("1", "2"):  # the two orders differed before the fix
            path = tmp_path / f"seed{seed}.jsonl"
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path_var)
            subprocess.run([sys.executable, "-c", script, str(path)],
                           env=env, check=True, timeout=120)
            saved.append(path.read_bytes())
        assert saved[0] == saved[1]


class TestStats:
    def test_stats_shape(self):
        store = _store()
        _register(store, 1)
        stats = store.stats()
        assert stats["datasets"] == 1
        assert stats["projects"] == 1
        assert stats["total_bytes"] == 4_000_000


# -- hypothesis: store invariants -------------------------------------------------

@given(
    plates=st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=40),
    query_plate=st.integers(min_value=0, max_value=5),
)
@settings(max_examples=60, deadline=None)
def test_indexed_query_equals_scan(plates, query_plate):
    """The index-assisted result always equals the full-scan result."""
    store = _store()
    for i, plate in enumerate(plates):
        _register(store, i, plate=plate)
    q = Q.field("plate") == query_plate
    scan = {r.dataset_id for r in store.query(q)}
    store.index_field("plate")
    indexed = {r.dataset_id for r in store.query(q)}
    assert indexed == scan
    assert scan == {f"img-{i}" for i, p in enumerate(plates) if p == query_plate}


@given(
    tag_ops=st.lists(
        st.tuples(st.integers(min_value=0, max_value=9), st.sampled_from(["a", "b"]),
                  st.booleans()),
        max_size=60,
    )
)
@settings(max_examples=50, deadline=None)
def test_tag_index_consistent_with_records(tag_ops):
    """After arbitrary tag/untag sequences, the tag index matches record
    state exactly."""
    store = _store()
    for i in range(10):
        _register(store, i)
    for i, tag, add in tag_ops:
        if add:
            store.tag(f"img-{i}", tag)
        else:
            store.untag(f"img-{i}", tag)
    for tag in ("a", "b"):
        from_index = {r.dataset_id for r in store.tagged(tag)}
        from_records = {r.dataset_id for r in store.datasets() if tag in r.tags}
        assert from_index == from_records
