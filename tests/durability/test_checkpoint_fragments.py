"""Differential suite: fragment-spliced checkpoints vs a full re-encode.

``DurableMetadataStore.snapshot()`` re-encodes only the records changed
since the last checkpoint and splices the rest from stored fragments.
The oracle is the plain ``json.dumps(state_dict(), sort_keys=True)``:
random mutation sequences (registrations single and batched, tags added
and removed, processing steps, indexes, explicit checkpoints, crashes
with torn tails followed by recovery) under every ``snapshot_every``
regime must produce checkpoints byte-equal to it, and a fresh store
recovered from a copy of the medium must land in the same state.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.durability import (
    DurableMetadataStore,
    MemoryWalStorage,
    WriteAheadLog,
)
from repro.metadata.errors import MetadataError
from repro.metadata.schema import FieldSpec, Schema


def _canonical(store) -> bytes:
    return json.dumps(store.state_dict(), sort_keys=True).encode("utf-8")


class _Checked(DurableMetadataStore):
    """Asserts every checkpoint it writes against the full re-encode."""

    def snapshot(self) -> bytes:
        data = super().snapshot()
        assert data == _canonical(self)
        return data


def _copy_medium(store) -> MemoryWalStorage:
    medium = MemoryWalStorage()
    snapshot = store.wal.storage.read_snapshot()
    if snapshot is not None:
        medium.checkpoint(snapshot)
    medium.append(store.wal.storage.read())
    return medium


def _recovered_twin(store) -> DurableMetadataStore:
    """A store that never cached anything, recovered from the medium."""
    twin = DurableMetadataStore(WriteAheadLog(_copy_medium(store)))
    twin.recover()
    return twin


ids = st.integers(0, 3).map(lambda i: f"d{i}")
tags = st.lists(st.sampled_from(["raw", "qc"]), max_size=2)
some_tags = st.lists(st.sampled_from(["raw", "qc"]), min_size=1, max_size=2)
ops = st.one_of(
    st.tuples(st.just("register"), ids, tags),
    st.tuples(st.just("batch"), st.lists(ids, min_size=1, max_size=3), tags),
    st.tuples(st.just("tag"), ids, some_tags),
    st.tuples(st.just("untag"), ids, some_tags),
    st.tuples(st.just("process"), ids, st.booleans()),
    st.tuples(st.just("index"), st.sampled_from(["sample", "n", "size"])),
    st.tuples(st.just("snapshot")),
    st.tuples(st.just("crash"), st.sampled_from([0, 1, 7, 60])),
)


def _apply(store, op, clock) -> None:
    kind = op[0]
    if kind == "register":
        _, dataset_id, tag_list = op
        n = int(dataset_id[1:])
        store.register_dataset(
            dataset_id, "zebra", f"adal://lsdf/{dataset_id}", 10 + n,
            f"sum{n}", {"sample": f"s{n % 2}", "n": n}, created=clock,
            tags=tag_list)
    elif kind == "batch":
        _, batch, tag_list = op
        store.register_batch([
            {"dataset_id": dataset_id, "project": "zebra",
             "url": f"adal://lsdf/{dataset_id}", "size": 1,
             "checksum": "c", "basic": {"sample": "b", "n": 0},
             "created": clock, "tags": tag_list}
            for dataset_id in batch])
    elif kind == "tag":
        store.tag(op[1], *op[2])
    elif kind == "untag":
        store.untag(op[1], *op[2])
    elif kind == "process":
        _, dataset_id, chained = op
        record = store.get(dataset_id)
        parent = (record.processing[-1].step_id
                  if chained and record.processing else None)
        store.add_processing(dataset_id, "align", {"step": clock},
                             {"ok": True}, clock, clock + 1.0, parent=parent)
    elif kind == "index":
        store.index_field(op[1])
    elif kind == "snapshot":
        store.snapshot()


@settings(max_examples=200, deadline=None)
@given(operations=st.lists(ops, max_size=40),
       snapshot_every=st.sampled_from([None, 1, 7]))
def test_checkpoints_equal_full_reencode(operations, snapshot_every):
    store = _Checked(snapshot_every=snapshot_every)
    store.register_project(
        "zebra", Schema("basic", [FieldSpec("sample", "str"),
                                  FieldSpec("n", "int")]))
    # A checkpointed start: every later change to d0/d1 has to mark a
    # fragment that the next checkpoint would otherwise splice in.
    for dataset_id in ("d0", "d1"):
        _apply(store, ("register", dataset_id, ["raw", "qc"]), 0.0)
    store.snapshot()
    for clock, op in enumerate(operations, start=1):
        if op[0] == "crash":
            before = store.state_bytes()
            store.crash(torn_tail_bytes=op[1])
            twin = _recovered_twin(store)
            store.recover()
            assert store.state_bytes() == twin.state_bytes()
            if op[1] == 0:
                assert store.state_bytes() == before
        else:
            try:
                _apply(store, op, float(clock))
            except (MetadataError, KeyError):
                pass  # write-once, unknown dataset: the store is untouched
    store.snapshot()
    assert _recovered_twin(store).state_bytes() == store.state_bytes()


def test_state_bytes_stores_no_fragments():
    """Comparing states must not leave a copy of the catalogue behind,
    and a mutation makes exactly the changed record's fragment stale."""
    store = DurableMetadataStore(snapshot_every=1000)
    store.register_project("zebra", Schema("basic", []))
    for i in range(3):
        store.register_dataset(f"d{i}", "zebra", f"u{i}", 1, "c", {},
                               tags=["raw"])
    kept = dict(store._fragments)
    assert list(kept) == ["d0", "d1", "d2"] and store._stale == {}
    store.state_bytes()
    assert store._fragments == kept and store._stale == {}
    store.untag("d1", "raw")
    assert list(store._stale) == ["d1"]
    store.snapshot()
    assert store._stale == {}
    assert store._fragments["d0"] is kept["d0"]
    assert store._fragments["d1"] != kept["d1"]


def test_store_without_snapshot_every_keeps_no_fragments():
    """A store that never checkpoints itself keeps no per-record bytes."""
    store = DurableMetadataStore()
    store.register_project("zebra", Schema("basic", []))
    for i in range(3):
        store.register_dataset(f"d{i}", "zebra", f"u{i}", 1, "c", {},
                               tags=["raw"])
    store.untag("d1", "raw")
    assert store.snapshot() == _canonical(store)
    assert store._fragments == {} and store._stale == {}
