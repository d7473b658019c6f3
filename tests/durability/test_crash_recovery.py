"""Crash/recovery of the durable metadata store.

The property test is the heart of the tentpole acceptance: apply an
arbitrary operation sequence, crash at an arbitrary *byte* offset of the
WAL (including mid-record — a torn final frame), recover, and demand the
state is byte-identical to the state after exactly the surviving WAL
prefix.  The oracle records ``state_bytes()`` after every WAL append and
replays the truncated log out-of-band to count the surviving records.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.durability import (
    DurableMetadataStore,
    MemoryWalStorage,
    WriteAheadLog,
)
from repro.metadata.errors import (
    MetadataError,
    MetadataUnavailableError,
    UnknownDatasetError,
    UnknownProjectError,
    WriteOnceError,
)
from repro.metadata.schema import FieldSpec, Schema


def _schema(name="basic"):
    return Schema(name, [FieldSpec("sample", "str"), FieldSpec("n", "int")])


def _fresh_store(snapshot_every=None):
    return DurableMetadataStore(snapshot_every=snapshot_every)


def _populate(store, datasets=3):
    store.register_project("zebra", _schema())
    for i in range(datasets):
        store.register_dataset(
            f"d{i}", "zebra", f"adal://lsdf/obj{i}", 100 + i, f"sum{i}",
            {"sample": f"s{i}", "n": i},
        )
    store.tag("d0", "raw", "microscopy")
    store.add_processing("d0", "align", {"p": 1}, {"ok": True}, 0.0, 5.0)
    store.index_field("sample")


# -- deterministic cases ------------------------------------------------------

class TestCrashRecoverDeterministic:
    def test_clean_crash_recovers_byte_identical_state(self):
        store = _fresh_store()
        _populate(store)
        before = store.state_bytes()
        store.crash()
        assert not store.available
        with pytest.raises(MetadataUnavailableError):
            store.register_dataset("x", "zebra", "adal://lsdf/x", 1, "c", {})
        replayed = store.recover()
        assert store.available
        assert replayed > 0
        assert store.state_bytes() == before

    def test_crash_right_after_load_keeps_the_catalogue(self, tmp_path):
        store = _fresh_store()
        _populate(store)
        path = tmp_path / "md.jsonl"
        store.save(path)
        loaded = DurableMetadataStore.load(path)
        state = loaded.state_bytes()
        assert len(loaded) == 3
        loaded.crash()
        loaded.recover()
        assert loaded.state_bytes() == state

    def test_torn_final_record_recovers_prefix_state(self):
        store = _fresh_store()
        _populate(store)
        prefix_state = store.state_bytes()
        store.tag("d1", "late")  # the record the tear destroys
        store.crash(torn_tail_bytes=3)
        store.recover()
        assert store.state_bytes() == prefix_state
        assert store.discarded_tail_bytes > 0

    def test_writes_after_a_torn_recovery_survive_the_next_crash(self):
        """Recovery cuts the torn tail off the medium; a record appended
        behind it would be unreadable at the next recovery."""
        store = _fresh_store()
        _populate(store)
        store.tag("d1", "late")
        store.crash(torn_tail_bytes=3)
        store.recover()
        store.tag("d2", "acknowledged")
        before = store.state_bytes()
        store.crash()
        store.recover()
        assert store.state_bytes() == before
        assert "acknowledged" in store.get("d2").tags

    def test_recovery_after_snapshot_replays_only_the_delta(self):
        store = _fresh_store()
        _populate(store)
        store.snapshot()
        store.tag("d2", "post-snap")
        before = store.state_bytes()
        store.crash()
        replayed = store.recover()
        assert replayed == 1  # just the tag; everything else from snapshot
        assert store.state_bytes() == before

    def test_recovery_is_idempotent(self):
        store = _fresh_store()
        _populate(store)
        before = store.state_bytes()
        store.crash()
        store.recover()
        store.recover()
        assert store.state_bytes() == before
        assert store.recoveries == 2

    def test_failed_ops_replay_to_the_same_state(self):
        """A logged op that failed (duplicate id, unknown project) re-fails
        deterministically on replay instead of corrupting the state."""
        store = _fresh_store()
        _populate(store)
        with pytest.raises(WriteOnceError):
            store.register_dataset("d0", "zebra", "adal://lsdf/dup", 1, "c", {})
        with pytest.raises(UnknownProjectError):
            store.register_dataset("g", "ghost", "adal://lsdf/g", 1, "c", {})
        with pytest.raises(MetadataError):
            store.tag("no-such-dataset", "t")
        before = store.state_bytes()
        store.crash()
        store.recover()
        assert store.state_bytes() == before

    def test_auto_snapshot_after_apply_keeps_acknowledged_op(self):
        """Checkpoint-ordering regression test: the auto-snapshot at the
        boundary must include the op that triggered it."""
        store = _fresh_store(snapshot_every=1)
        _populate(store)  # every op checkpoints immediately after applying
        before = store.state_bytes()
        assert store.snapshots > 0
        assert store.wal.size_bytes == 0  # everything checkpointed
        store.crash()
        replayed = store.recover()
        assert replayed == 0  # pure snapshot restore
        assert store.state_bytes() == before

    def test_failed_op_on_a_crashed_store_never_checkpoints(self):
        """The appends counted since the last checkpoint survive a crash,
        and a logged op that then fails on the wiped store may reach the
        threshold: checkpointing there would replace the durable catalogue
        with the empty in-memory one."""
        store = _fresh_store(snapshot_every=256)
        _populate(store, datasets=300)
        for i in range(200):
            store.tag(f"d{i}", "seen")
        before = store.state_bytes()
        snapshots = store.snapshots
        store.crash()
        for _ in range(store.snapshot_every):
            with pytest.raises(MetadataError):
                store.tag("no-such-dataset", "t")
            with pytest.raises(MetadataError):
                store.untag("no-such-dataset", "t")
            with pytest.raises(MetadataError):
                store.add_processing("no-such-dataset", "align", {}, {},
                                     0.0, 1.0)
        assert store.snapshots == snapshots
        store.recover()
        assert store.state_bytes() == before

    @pytest.mark.parametrize("op", [
        lambda store, dataset_id: store.tag(dataset_id, "late"),
        lambda store, dataset_id: store.untag(dataset_id, "raw"),
        lambda store, dataset_id: store.add_processing(
            dataset_id, "align", {"p": 2}, {"ok": False}, 6.0, 7.0),
    ], ids=["tag", "untag", "add_processing"])
    def test_refused_mutator_leaves_no_trace(self, op):
        """A tag, untag or processing step sent to a crashed store raises
        ``MetadataUnavailableError`` and is never logged, so ``recover()``
        does not apply what its caller saw fail; on a live store, one that
        names an unknown dataset is refused before it is logged too."""
        store = _fresh_store()
        _populate(store)
        before = store.state_bytes()
        appended = store.wal.appended
        store.crash()
        with pytest.raises(MetadataUnavailableError):
            op(store, "d0")
        assert store.wal.appended == appended
        store.recover()
        assert store.state_bytes() == before
        with pytest.raises(UnknownDatasetError):
            op(store, "no-such-dataset")
        assert store.wal.appended == appended

    def test_durability_stats_counters(self):
        store = _fresh_store()
        _populate(store)
        store.crash(torn_tail_bytes=1)
        store.recover()
        stats = store.durability_stats()
        assert stats["crashes"] == 1
        assert stats["recoveries"] == 1
        assert stats["replayed_records"] > 0
        assert stats["discarded_tail_bytes"] > 0
        assert stats["wal_records"] > 0

    def test_snapshot_every_validation(self):
        with pytest.raises(ValueError):
            DurableMetadataStore(snapshot_every=0)


# -- the property test ---------------------------------------------------------

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("project"), st.sampled_from(["p1", "p2"])),
        st.tuples(
            st.just("dataset"),
            st.sampled_from([f"d{i}" for i in range(6)]),
            st.sampled_from(["p1", "p2", "ghost"]),
        ),
        st.tuples(
            st.just("tag"),
            st.sampled_from(["d0", "d1", "d2", "nope"]),
            st.sampled_from(["raw", "done", "hot"]),
        ),
        st.tuples(
            st.just("untag"),
            st.sampled_from(["d0", "d1", "nope"]),
            st.sampled_from(["raw", "done"]),
        ),
        st.tuples(st.just("processing"), st.sampled_from(["d0", "d3", "nope"])),
        st.tuples(st.just("index"), st.sampled_from(["sample", "n"])),
    ),
    min_size=1,
    max_size=30,
)


def _apply_op(store, op):
    kind = op[0]
    try:
        if kind == "project":
            store.register_project(op[1], _schema(op[1]))
        elif kind == "dataset":
            store.register_dataset(
                op[1], op[2], f"adal://lsdf/{op[1]}", 10, "c-" + op[1],
                {"sample": op[1]},
            )
        elif kind == "tag":
            store.tag(op[1], op[2])
        elif kind == "untag":
            store.untag(op[1], op[2])
        elif kind == "processing":
            store.add_processing(op[1], "step", {}, {}, 0.0, 1.0)
        elif kind == "index":
            store.index_field(op[1])
    except (MetadataError, KeyError):
        pass  # failed ops may still have been logged — the point of the test


def _surviving_records(wal_bytes, cut):
    """How many complete records survive truncating the log at ``cut``."""
    storage = MemoryWalStorage()
    storage.append(wal_bytes[:cut])
    return len(WriteAheadLog(storage).replay().records)


@given(ops=_OPS, cut_fraction=st.floats(0.0, 1.0),
       snapshot_every=st.sampled_from([None, 1, 2, 5]))
@settings(max_examples=120, deadline=None)
def test_recovery_exact_at_arbitrary_crash_point(ops, cut_fraction, snapshot_every):
    store = _fresh_store(snapshot_every=snapshot_every)
    # Oracle: states[k] = canonical state after the k-th surviving WAL
    # record since the last checkpoint.  states[0] is the checkpoint state.
    states = [store.state_bytes()]
    for op in ops:
        appended_before = store.wal.appended
        snapshots_before = store.snapshots
        _apply_op(store, op)
        if store.snapshots > snapshots_before:
            states = [store.state_bytes()]  # checkpoint absorbed the log
        elif store.wal.appended > appended_before:
            states.append(store.state_bytes())

    wal_bytes = store.wal.storage.read()
    cut = int(round(cut_fraction * len(wal_bytes)))
    survivors = _surviving_records(wal_bytes, cut)
    assert survivors < len(states)

    store.crash(torn_tail_bytes=len(wal_bytes) - cut)
    replayed = store.recover()
    assert replayed == survivors
    assert store.state_bytes() == states[survivors]


@given(ops=_OPS, snapshot_every=st.sampled_from([None, 3]))
@settings(max_examples=60, deadline=None)
def test_clean_crash_always_loses_nothing(ops, snapshot_every):
    store = _fresh_store(snapshot_every=snapshot_every)
    for op in ops:
        _apply_op(store, op)
    before = store.state_bytes()
    store.crash()
    store.recover()
    assert store.state_bytes() == before
