"""Tests for the write-ahead log: framing, CRC, torn tails, checkpoints."""

import struct
import zlib

import pytest

from repro.durability import (
    DurableMetadataStore,
    FileWalStorage,
    MemoryWalStorage,
    WalError,
    WalRecord,
    WriteAheadLog,
)
from repro.metadata.schema import FieldSpec, Schema

_HEADER = struct.Struct("<II")


def _filled_log(n=5):
    wal = WriteAheadLog()
    for i in range(n):
        wal.append("op", {"i": i})
    return wal


class TestFraming:
    def test_roundtrip_preserves_records(self):
        wal = _filled_log(5)
        result = wal.replay()
        assert not result.torn
        assert [r.seq for r in result.records] == [1, 2, 3, 4, 5]
        assert [r.args["i"] for r in result.records] == list(range(5))
        assert all(r.op == "op" for r in result.records)

    def test_record_encode_is_header_plus_payload(self):
        record = WalRecord(seq=7, op="tag", args={"x": 1})
        framed = record.encode()
        length, crc = _HEADER.unpack_from(framed, 0)
        payload = framed[_HEADER.size:]
        assert len(payload) == length
        assert zlib.crc32(payload) == crc
        assert WalRecord.decode_payload(payload) == record

    def test_seq_resumes_from_medium(self):
        storage = MemoryWalStorage()
        WriteAheadLog(storage).append("a", {})
        wal2 = WriteAheadLog(storage)
        assert wal2.append("b", {}).seq == 2

    def test_appended_counter_counts_this_instance_only(self):
        storage = MemoryWalStorage()
        WriteAheadLog(storage).append("a", {})
        wal2 = WriteAheadLog(storage)
        assert wal2.appended == 0
        wal2.append("b", {})
        assert wal2.appended == 1


class TestTornTail:
    @pytest.mark.parametrize("nbytes", [1, 3, 8, 11])
    def test_torn_tail_drops_only_final_record(self, nbytes):
        wal = _filled_log(4)
        wal.torn_tail(nbytes)
        result = wal.replay()
        assert result.torn
        assert result.discarded_bytes > 0
        assert [r.args["i"] for r in result.records] == [0, 1, 2]

    def test_tear_of_whole_record_is_clean(self):
        """Tearing exactly one framed record leaves a valid shorter log."""
        wal = _filled_log(3)
        last = WalRecord(seq=3, op="op", args={"i": 2}).encode()
        wal.torn_tail(len(last))
        result = wal.replay()
        assert not result.torn
        assert [r.seq for r in result.records] == [1, 2]

    def test_corrupt_middle_byte_stops_replay_at_bad_frame(self):
        storage = MemoryWalStorage()
        wal = WriteAheadLog(storage)
        for i in range(4):
            wal.append("op", {"i": i})
        first = WalRecord(seq=1, op="op", args={"i": 0}).encode()
        # Flip a payload byte of record 2: replay trusts record 1 only.
        storage._log[len(first) + _HEADER.size] ^= 0xFF
        result = wal.replay()
        assert result.torn
        assert [r.seq for r in result.records] == [1]

    def test_negative_tear_rejected(self):
        with pytest.raises(WalError):
            _filled_log(1).torn_tail(-1)

    def test_zero_tear_is_noop(self):
        wal = _filled_log(2)
        before = wal.size_bytes
        wal.torn_tail(0)
        assert wal.size_bytes == before


class TestCheckpoint:
    def test_checkpoint_stores_snapshot_and_clears_log(self):
        wal = _filled_log(3)
        wal.checkpoint(b"state-at-3")
        assert wal.snapshot == b"state-at-3"
        assert wal.size_bytes == 0
        assert wal.replay().records == []

    def test_appends_after_checkpoint_replay_alone(self):
        wal = _filled_log(3)
        wal.checkpoint(b"s")
        wal.append("post", {"k": "v"})
        records = wal.replay().records
        assert [r.op for r in records] == ["post"]


class TestFileWalStorage:
    def test_persists_across_instances(self, tmp_path):
        path = tmp_path / "meta.wal"
        wal = WriteAheadLog(FileWalStorage(path))
        wal.append("a", {"i": 1})
        wal.checkpoint(b"snap")
        wal.append("b", {"i": 2})

        reopened = WriteAheadLog(FileWalStorage(path))
        assert reopened.snapshot == b"snap"
        assert [r.op for r in reopened.replay().records] == ["b"]

    def test_truncate_tears_on_disk_log(self, tmp_path):
        wal = WriteAheadLog(FileWalStorage(tmp_path / "w.wal"))
        wal.append("a", {})
        wal.append("b", {})
        wal.torn_tail(2)
        result = wal.replay()
        assert result.torn
        assert [r.op for r in result.records] == ["a"]

    def test_no_snapshot_reads_none(self, tmp_path):
        storage = FileWalStorage(tmp_path / "w.wal")
        assert storage.read_snapshot() is None


@pytest.fixture(params=["memory", "file"])
def storage(request, tmp_path):
    if request.param == "memory":
        return MemoryWalStorage()
    return FileWalStorage(tmp_path / "w.wal")


class TestSize:
    """``WalStorage.size()`` answers without copying the log, and always
    equals ``len(read())``."""

    def test_tracks_appends_tears_and_checkpoints(self, storage):
        wal = WriteAheadLog(storage)
        assert storage.size() == 0
        for i in range(4):
            wal.append("op", {"i": i})
            assert storage.size() == len(storage.read())
        full = storage.size()
        wal.torn_tail(5)
        assert storage.size() == full - 5 == len(storage.read())
        wal.checkpoint(b"snap")
        assert storage.size() == 0 == len(storage.read())

    def test_after_recovery_cuts_the_torn_tail(self, storage):
        store = DurableMetadataStore(WriteAheadLog(storage))
        store.register_project("p", Schema("p", [FieldSpec("n", "int")]))
        for i in range(3):
            store.register_dataset(f"d{i}", "p", f"adal://x/{i}", 1, "c",
                                   {"n": i})
        before = storage.size()
        store.crash(torn_tail_bytes=3)
        assert storage.size() == before - 3
        store.recover()
        assert store.discarded_tail_bytes > 0
        assert storage.size() == len(storage.read()) < before - 3
        assert store.wal.size_bytes == storage.size()

    def test_size_bytes_does_not_read_the_log(self, storage, monkeypatch):
        wal = WriteAheadLog(storage)
        wal.append("op", {"i": 1})
        expected = len(storage.read())

        def no_copy():
            raise AssertionError("size_bytes copied the whole log")

        monkeypatch.setattr(storage, "read", no_copy)
        assert wal.size_bytes == expected
