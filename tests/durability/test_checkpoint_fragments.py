"""Differential suite: spliced checkpoints vs a full re-encode.

``DurableMetadataStore.snapshot()`` re-encodes only the records changed
since the last checkpoint, takes the WAL encodings of the records
registered since, and splices the rest from the last checkpoint.
The oracle is the plain ``json.dumps(state_dict(), sort_keys=True)``:
random mutation sequences (registrations single and batched, tags added
and removed, processing steps, indexes, explicit checkpoints, crashes
with torn tails followed by recovery) under every ``snapshot_every``
regime must produce checkpoints byte-equal to it, and a fresh store
recovered from a copy of the medium must land in the same state.
"""

import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.durability.durable as durable
from repro.durability import (
    DurableMetadataStore,
    MemoryWalStorage,
    WriteAheadLog,
)
from repro.durability.wal import canonical
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


def test_state_bytes_stores_no_fragments(monkeypatch):
    """Comparing states must not leave a copy of the catalogue behind,
    and a checkpoint encodes only the records changed since the last one:
    a registration brings the encoding its WAL record was made of."""
    store = DurableMetadataStore(snapshot_every=1000)
    store.register_project("zebra", Schema("basic", []))
    for i in range(3):
        store.register_dataset(f"d{i}", "zebra", f"u{i}", 1, "c", {},
                               tags=["raw"])
    store.snapshot()
    base, ends = store._base, list(store._ends)
    store.state_bytes()
    assert store._base is base and list(store._ends) == ends
    assert store._fresh == [] and store._changed == set()

    encoded = []

    def counting(obj):
        if "dataset_id" in obj:
            encoded.append(obj["dataset_id"])
        return canonical(obj)

    monkeypatch.setattr(durable, "canonical", counting)
    store.register_dataset("d3", "zebra", "u3", 1, "c", {})
    store.untag("d1", "raw")
    assert encoded == ["d3"]
    assert store.snapshot() == _canonical(store)
    assert encoded == ["d3", "d1"]
    assert store._fresh == [] and store._changed == set()


def test_store_without_snapshot_every_keeps_no_fragments():
    """A store that never checkpoints itself keeps no per-record bytes."""
    store = DurableMetadataStore()
    store.register_project("zebra", Schema("basic", []))
    for i in range(3):
        store.register_dataset(f"d{i}", "zebra", f"u{i}", 1, "c", {},
                               tags=["raw"])
    store.untag("d1", "raw")
    assert store.snapshot() == _canonical(store)
    assert store._base == b"" and not store._ends
    assert store._fresh == [] and store._changed == set()


count = st.integers(1, 12)
known = st.integers(0, 90)  # ids past the catalogue fail, logged or not
bound_ops = st.lists(st.one_of(
    st.tuples(st.just("register"), count),
    st.tuples(st.just("batch"), count),
    st.tuples(st.just("tag"), known, some_tags),
    st.tuples(st.just("untag"), known, some_tags),
    st.tuples(st.just("process"), known, st.booleans()),
), max_size=30)


def _grow(store, operations) -> None:
    """Apply ``operations``; registrations take the next free ids."""
    for clock, op in enumerate(operations, start=1):
        if op[0] in ("register", "batch"):
            new = [f"d{i}" for i in range(len(store), len(store) + op[1])]
            steps = ([("register", dataset_id, []) for dataset_id in new]
                     if op[0] == "register" else [("batch", new, [])])
        else:
            steps = [(op[0], f"d{op[1]}", op[2])]
        for step in steps:
            try:
                _apply(store, step, float(clock))
            except (MetadataError, KeyError):
                pass  # unknown dataset: the store is untouched


@settings(max_examples=100, deadline=None)
@given(before=bound_ops, after=bound_ops,
       snapshot_every=st.sampled_from([1, 4, 16]))
# Logged ops on unknown records fail, and still count toward the bound.
@example(before=[("tag", 5, ["raw"])] * 2, after=[], snapshot_every=1)
@example(before=[("untag", 5, ["raw"])] * 2, after=[], snapshot_every=1)
def test_crash_replays_at_most_the_ratio_bound(before, after, snapshot_every):
    """However the catalogue grew and changed, a crash replays at most
    ``max(snapshot_every, N * ratio)`` WAL records and recovers the state
    of a twin that never crashed, before and after further work."""
    store, twin = (_Checked(snapshot_every=snapshot_every) for _ in range(2))
    for each in (store, twin):
        each.register_project(
            "zebra", Schema("basic", [FieldSpec("sample", "str"),
                                      FieldSpec("n", "int")]))
        _grow(each, before)
    store.crash()
    replayed = store.recover()
    assert replayed <= max(snapshot_every,
                           int(len(store) * durable._CHECKPOINT_RATIO))
    assert store.state_bytes() == twin.state_bytes()
    for each in (store, twin):
        _grow(each, after)
        each.snapshot()
    assert store.state_bytes() == twin.state_bytes()
