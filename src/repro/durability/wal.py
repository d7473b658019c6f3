"""The metadata write-ahead log: framed, checksummed, torn-tail tolerant.

Every mutating :class:`~repro.metadata.store.MetadataStore` operation is
appended to a :class:`WriteAheadLog` before it is applied, so a crash of the
(in-memory) repository loses nothing that was acknowledged: recovery loads
the last checkpoint snapshot and replays the log.

Record framing
--------------
Each record is laid out as::

    +---------+---------+------------------+
    | length  | crc32   | payload          |
    | 4 bytes | 4 bytes | ``length`` bytes |
    +---------+---------+------------------+

with little-endian unsigned header fields and a UTF-8 JSON payload
``{"seq": n, "op": name, "args": {...}}``.  The framing makes a *torn tail*
— a record that was mid-append when the process died — detectable: replay
stops at the first record whose header is incomplete, whose payload is
shorter than ``length``, or whose CRC does not match, and reports how many
bytes it discarded.  Everything before the tear is trusted (CRC-verified);
nothing after it is.

The log writes to a :class:`WalStorage` — the "durable medium" that survives
a simulated crash.  :class:`MemoryWalStorage` (default) keeps the bytes in a
bytearray; :class:`FileWalStorage` puts them in a real file pair
(``<path>`` + ``<path>.snap``) for cross-process durability.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Any, Mapping, Optional

_HEADER = struct.Struct("<II")  # (payload length, payload crc32)
_ENCODER = json.JSONEncoder(sort_keys=True)


def canonical(obj: Any) -> bytes:
    """``json.dumps(obj, sort_keys=True)`` as UTF-8 bytes: the one encoding
    WAL records and metadata checkpoints share."""
    return _ENCODER.encode(obj).encode()


class WalError(Exception):
    """Write-ahead-log usage errors (not torn tails — those are expected)."""


@dataclass(frozen=True)
class WalRecord:
    """One log record; ``args`` may be pre-encoded :func:`canonical` bytes."""

    seq: int
    op: str
    args: dict | bytes

    def encode(self) -> bytes:
        """The framed on-medium form of this record.  Bytes ``args`` are
        spliced in; the keys sort as written, so the payload is exactly
        :func:`canonical` of the record."""
        args = self.args
        if not isinstance(args, bytes):
            args = canonical(args)
        payload = b'{"args": %b, "op": %b, "seq": %d}' % (
            args, encode_basestring_ascii(self.op).encode(), self.seq)
        return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload

    @classmethod
    def decode_payload(cls, payload: bytes) -> "WalRecord":
        """Decode one CRC-verified payload."""
        data = json.loads(payload.decode("utf-8"))
        return cls(seq=int(data["seq"]), op=str(data["op"]), args=dict(data["args"]))


class WalStorage:
    """The durable medium behind a :class:`WriteAheadLog`.

    Subclasses persist two things: the log bytes and the latest checkpoint
    snapshot.  Both survive a :meth:`DurableMetadataStore.crash
    <repro.durability.durable.DurableMetadataStore.crash>` — only the
    in-memory store state is lost.
    """

    def read(self) -> bytes:
        """The full current log contents."""
        raise NotImplementedError

    def size(self) -> int:
        """Current log length in bytes.  Media override this to answer
        without copying the log; this fallback reads it whole."""
        return len(self.read())

    def append(self, data: bytes) -> None:
        """Append bytes to the log."""
        raise NotImplementedError

    def truncate(self, nbytes: int) -> None:
        """Drop the last ``nbytes`` bytes of the log (torn-write chaos)."""
        raise NotImplementedError

    def checkpoint(self, snapshot: bytes) -> None:
        """Atomically store a snapshot and clear the log."""
        raise NotImplementedError

    def read_snapshot(self) -> Optional[bytes]:
        """The latest checkpoint snapshot, or None."""
        raise NotImplementedError


class MemoryWalStorage(WalStorage):
    """Log + snapshot in process memory (the default simulated medium)."""

    def __init__(self) -> None:
        self._log = bytearray()
        self._snapshot: Optional[bytes] = None

    def read(self) -> bytes:
        return bytes(self._log)

    def size(self) -> int:
        return len(self._log)

    def append(self, data: bytes) -> None:
        self._log.extend(data)

    def truncate(self, nbytes: int) -> None:
        if nbytes > 0:
            del self._log[max(0, len(self._log) - nbytes):]

    def checkpoint(self, snapshot: bytes) -> None:
        self._snapshot = bytes(snapshot)
        self._log.clear()

    def read_snapshot(self) -> Optional[bytes]:
        return self._snapshot


class FileWalStorage(WalStorage):
    """Log in ``<path>``, snapshot in ``<path>.snap`` (real durability)."""

    def __init__(self, path: str | os.PathLike):
        self.path = os.fspath(path)
        self.snapshot_path = self.path + ".snap"
        if not os.path.exists(self.path):
            with open(self.path, "wb"):
                pass

    def read(self) -> bytes:
        with open(self.path, "rb") as fh:
            return fh.read()

    def size(self) -> int:
        return os.path.getsize(self.path)

    def append(self, data: bytes) -> None:
        with open(self.path, "ab") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())

    def truncate(self, nbytes: int) -> None:
        size = os.path.getsize(self.path)
        with open(self.path, "ab") as fh:
            fh.truncate(max(0, size - nbytes))

    def checkpoint(self, snapshot: bytes) -> None:
        tmp = self.snapshot_path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(snapshot)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.snapshot_path)
        with open(self.path, "wb"):
            pass  # log cleared only after the snapshot is durable

    def read_snapshot(self) -> Optional[bytes]:
        if not os.path.exists(self.snapshot_path):
            return None
        with open(self.snapshot_path, "rb") as fh:
            return fh.read()


@dataclass
class ReplayResult:
    """What :meth:`WriteAheadLog.replay` could trust."""

    records: list[WalRecord]
    #: Bytes after the first undecodable frame (torn tail / corruption).
    discarded_bytes: int

    @property
    def torn(self) -> bool:
        """Whether the log ended in an unreadable tail."""
        return self.discarded_bytes > 0


class WriteAheadLog:
    """Append-only, CRC-framed operation log with checkpoint snapshots."""

    def __init__(self, storage: Optional[WalStorage] = None):
        self.storage = storage or MemoryWalStorage()
        self._seq = self._last_seq_on_medium()
        #: Records appended since construction (monitoring only).
        self.appended = 0
        #: Batched flushes performed via :meth:`append_batch`.
        self.group_commits = 0

    def _last_seq_on_medium(self) -> int:
        result = self.replay()
        return result.records[-1].seq if result.records else 0

    # -- writing ------------------------------------------------------------
    def append(self, op: str, args: Mapping[str, Any] | bytes) -> WalRecord:
        """Frame and append one operation record; returns the record.
        ``args`` is a mapping or its :func:`canonical` bytes."""
        self._seq += 1
        record = WalRecord(seq=self._seq, op=op, args=args)
        self.storage.append(record.encode())
        self.appended += 1
        return record

    def append_batch(
        self, ops: list[tuple[str, Mapping[str, Any] | bytes]]
    ) -> list[WalRecord]:
        """Frame N operation records and append them in ONE storage flush.

        The group-commit fast path: on a :class:`FileWalStorage` this is
        one ``write``+``fsync`` for the whole batch instead of one per
        record.  The bytes on the medium are identical to ``len(ops)``
        sequential :meth:`append` calls — same seqs, same framing — so
        replay (and crash-replay equivalence) is unchanged, and a torn
        tail still invalidates only the records past the tear.  ``args``
        are taken as by :meth:`append`.
        """
        if not ops:
            return []
        records = [WalRecord(seq=seq, op=op, args=args)
                   for seq, (op, args) in enumerate(ops, self._seq + 1)]
        self.storage.append(b"".join([record.encode() for record in records]))
        self._seq += len(records)
        self.appended += len(records)
        self.group_commits += 1
        return records

    def checkpoint(self, snapshot: bytes) -> None:
        """Store a full-state snapshot and clear the log."""
        self.storage.checkpoint(snapshot)

    @property
    def snapshot(self) -> Optional[bytes]:
        """The latest checkpoint snapshot bytes (None before the first)."""
        return self.storage.read_snapshot()

    @property
    def size_bytes(self) -> int:
        """Current log length on the medium."""
        return self.storage.size()

    # -- chaos hooks ----------------------------------------------------------
    def torn_tail(self, nbytes: int) -> None:
        """Simulate a crash mid-append: drop the final ``nbytes`` bytes."""
        if nbytes < 0:
            raise WalError("torn_tail takes a non-negative byte count")
        self.storage.truncate(nbytes)

    # -- reading ---------------------------------------------------------------
    def replay(self) -> ReplayResult:
        """Decode every trustworthy record, stopping at the first bad frame.

        A record is trusted iff its header is complete, its payload is fully
        present, and the CRC matches.  The first violation ends the replay;
        the remaining bytes are reported as discarded (a torn tail, or
        corruption — either way nothing past it can be trusted).
        """
        data = self.storage.read()
        records: list[WalRecord] = []
        offset = 0
        while offset < len(data):
            if offset + _HEADER.size > len(data):
                break  # torn header
            length, crc = _HEADER.unpack_from(data, offset)
            start = offset + _HEADER.size
            payload = data[start:start + length]
            if len(payload) < length or zlib.crc32(payload) != crc:
                break  # torn or corrupt payload
            try:
                records.append(WalRecord.decode_payload(payload))
            except (ValueError, KeyError):
                break  # CRC passed but the payload is not a record
            offset = start + length
        return ReplayResult(records=records, discarded_bytes=len(data) - offset)
