"""A crash-durable metadata repository: WAL + snapshot + replay.

:class:`DurableMetadataStore` extends the in-memory
:class:`~repro.metadata.store.MetadataStore` so that every mutating
operation (``register_project``, ``register_dataset``, ``add_processing``,
``tag``/``untag``, ``index_field``) is appended to a
:class:`~repro.durability.wal.WriteAheadLog` *before* it is applied.  The
in-memory state can then be wiped at any moment — the ``metadata_crash``
chaos incident does exactly that, optionally tearing the final WAL record —
and :meth:`recover` reconstructs the exact pre-crash state from the last
checkpoint snapshot plus the trustworthy WAL prefix.

Replay is exact because every mutator is atomic: all validation happens
before the first state change, so an operation either fully applies or
leaves the store untouched.  A logged operation that *failed* when it was
first attempted (a tag on an unknown dataset; registrations are checked
before they are logged) deterministically fails again on replay and is
skipped — recovering the same end state.
"""

from __future__ import annotations

import json
from array import array
from itertools import accumulate, islice
from typing import Any, Iterable, Mapping, Optional

from repro.metadata.errors import (
    MetadataError,
    MetadataUnavailableError,
    WriteOnceError,
)
from repro.metadata.records import DatasetRecord, ProcessingRecord
from repro.metadata.schema import Schema
from repro.metadata.store import MetadataStore, ProjectInfo
from repro.durability.wal import WriteAheadLog, canonical

_SNAPSHOT_KIND = "lsdf-metadata-snapshot"
_OPEN = b'{"datasets": ['
_SEP_LEN = len(b", ")

#: With ``snapshot_every``, a checkpoint is due once the WAL appends since
#: the last one reach this fraction of the catalogue (and ``snapshot_every``).
#: Recovery then replays at most ``max(snapshot_every, N * ratio)`` records,
#: and registrations alone must double the catalogue before the next
#: checkpoint, so all checkpoints together write under twice the final
#: catalogue however long the run.
_CHECKPOINT_RATIO = 0.5


class DurableMetadataStore(MetadataStore):
    """A :class:`MetadataStore` whose mutations survive a process crash.

    Parameters
    ----------
    wal:
        The write-ahead log (default: a fresh in-memory one).
    snapshot_every:
        Automatically checkpoint once the WAL appends since the last
        checkpoint reach this many, or half the catalogue when that is
        more (None = only on explicit :meth:`snapshot` calls).
        Checkpointing bounds recovery replay time and WAL growth.
    """

    def __init__(
        self,
        wal: Optional[WriteAheadLog] = None,
        snapshot_every: Optional[int] = None,
    ):
        super().__init__()
        if snapshot_every is not None and snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")
        self.wal = wal or WriteAheadLog()
        self.snapshot_every = snapshot_every
        self._replaying = False
        self._appends_since_snapshot = 0
        #: Monitoring counters (rendered by the Durability report section).
        self.snapshots = 0
        self.recoveries = 0
        self.crashes = 0
        self.replayed_records = 0
        self.discarded_tail_bytes = 0

    # -- logging ------------------------------------------------------------
    def _log(self, op: str, args: Mapping[str, Any]) -> None:
        if self._replaying:
            return
        self.wal.append(op, args)
        self._appends_since_snapshot += 1

    def _maybe_snapshot(self) -> None:
        """Auto-checkpoint — called *after* a logged op has applied, or
        failed (its record counts toward the replay bound all the same).

        Checkpointing before the apply would capture a state missing the op
        while simultaneously clearing its WAL record: acknowledged data
        silently lost.  Tested by the crash-at-snapshot-boundary cases.

        A store that is down never checkpoints: after a crash its in-memory
        state is wiped, and a checkpoint would replace the durable catalogue
        with nothing (an outage only defers it to the first op after).
        """
        if (self._replaying or self.snapshot_every is None
                or not self._available):
            return
        if self._appends_since_snapshot >= max(
                self.snapshot_every,
                int(len(self._datasets) * _CHECKPOINT_RATIO)):
            self.snapshot()

    # -- logged mutators ------------------------------------------------------
    def register_project(
        self,
        name: str,
        basic_schema: Schema,
        processing_schemas: Optional[Mapping[str, Schema]] = None,
    ) -> ProjectInfo:
        if name in self._projects:  # fail before logging: nothing will change
            raise MetadataError(f"project {name!r} already registered")
        self._log(
            "register_project",
            {
                "name": name,
                "basic_schema": basic_schema.to_dict(),
                "processing_schemas": {
                    step: schema.to_dict()
                    for step, schema in (processing_schemas or {}).items()
                },
            },
        )
        info = super().register_project(name, basic_schema, processing_schemas)
        self._maybe_snapshot()
        return info

    def register_dataset(
        self,
        dataset_id: str,
        project: str,
        url: str,
        size: int,
        checksum: str,
        basic: Mapping[str, Any],
        created: float = 0.0,
        tags: Iterable[str] = (),
    ) -> DatasetRecord:
        """Check, log, apply.  A rejected registration is never logged; the
        WAL record's ``args`` are the record's canonical encoding (with
        ``"processing": []``), which is also its checkpoint fragment."""
        record = self._new_record(dataset_id, project, url, size, checksum,
                                  basic, created, tags)
        fragment = canonical(record.to_dict())
        self._log("register_dataset", fragment)
        self._index_record(record, fragment)
        self._maybe_snapshot()
        return record

    def register_batch(
        self, items: list[Mapping[str, Any]]
    ) -> list[DatasetRecord]:
        """Register N datasets with ONE WAL flush (group commit).

        All-or-nothing: every item is validated — write-once, project
        existence, schema — *before* anything is logged or applied, so a
        bad item fails the whole batch with the store untouched (the wire
        service then retries items individually for per-op outcomes).

        The WAL receives ``len(items)`` ordinary ``register_dataset``
        records in one :meth:`~repro.durability.wal.WriteAheadLog.append_batch`
        flush; recovery replay is byte-for-byte identical to sequential
        registration, which the crash-replay equivalence test asserts.

        Each item is a kwargs mapping for :meth:`register_dataset`
        (``dataset_id``, ``project``, ``url``, ``size``, ``checksum``,
        ``basic``, optional ``created`` and ``tags``).
        """
        if not self._available:
            raise MetadataUnavailableError("metadata repository is down")
        seen: set[str] = set()
        records = []
        for item in items:
            if item["dataset_id"] in seen:
                raise WriteOnceError(
                    f"dataset {item['dataset_id']!r} already registered")
            seen.add(item["dataset_id"])
            records.append(self._new_record(**item))
        fragments = [canonical(record.to_dict()) for record in records]
        self.wal.append_batch(
            [("register_dataset", fragment) for fragment in fragments])
        self._appends_since_snapshot += len(items)
        for record, fragment in zip(records, fragments):
            self._index_record(record, fragment)
        self._maybe_snapshot()
        return records

    def _reset(self) -> None:
        super()._reset()
        # Kept only with snapshot_every: the last checkpoint this store
        # wrote and the end offset of each record's encoding in it, then
        # in catalogue order the encodings of the records entered since
        # (None: recovered, to encode), and the records changed since.
        self._base = b""
        self._ends = array("Q")
        self._fresh: list[Optional[bytes]] = []
        self._changed: set[str] = set()

    def _index_record(self, record: DatasetRecord,
                      fragment: Optional[bytes] = None) -> None:
        """Index a record and keep its encoding for the next checkpoint."""
        super()._index_record(record)
        if self.snapshot_every is not None:
            self._fresh.append(fragment)

    def _record_changed(self, dataset_id: str) -> None:
        if self.snapshot_every is not None:
            self._changed.add(dataset_id)

    def add_processing(
        self,
        dataset_id: str,
        name: str,
        params: Mapping[str, Any],
        results: Mapping[str, Any],
        started: float,
        finished: float,
        status: str = "success",
        parent: Optional[str] = None,
    ) -> ProcessingRecord:
        self._check_strings("dataset id and step name", dataset_id, name)
        self._log(
            "add_processing",
            {
                "dataset_id": dataset_id,
                "name": name,
                "params": dict(params),
                "results": dict(results),
                "started": float(started),
                "finished": float(finished),
                "status": status,
                "parent": parent,
            },
        )
        try:
            step = super().add_processing(
                dataset_id, name, params, results, started, finished,
                status=status, parent=parent,
            )
            self._record_changed(dataset_id)
        finally:
            self._maybe_snapshot()
        return step

    def tag(self, dataset_id: str, *tags: str) -> None:
        self._check_strings("dataset id and tags", dataset_id, *tags)
        self._log("tag", {"dataset_id": dataset_id, "tags": list(tags)})
        try:
            super().tag(dataset_id, *tags)
            self._record_changed(dataset_id)
        finally:
            self._maybe_snapshot()

    def untag(self, dataset_id: str, *tags: str) -> None:
        self._log("untag", {"dataset_id": dataset_id, "tags": list(tags)})
        try:
            super().untag(dataset_id, *tags)
            self._record_changed(dataset_id)
        finally:
            self._maybe_snapshot()

    def index_field(self, name: str) -> None:
        if name in self._field_indexes:  # idempotent: re-logging is noise
            return
        self._log("index_field", {"name": name})
        super().index_field(name)
        self._maybe_snapshot()

    @classmethod
    def load(cls, path) -> "DurableMetadataStore":
        """Load a :meth:`save` file and checkpoint it at once: the restore
        enters records without logging them, so until the checkpoint a
        crash would lose the catalogue."""
        store = super().load(path)
        store.snapshot()
        return store

    # -- snapshot / state ------------------------------------------------------
    def state_dict(self) -> dict:
        """The complete repository state in canonical JSON-ready form.

        Two stores are in the same state iff their ``state_dict``\\ s (and
        hence their :meth:`state_bytes`) are equal — the recovery tests
        compare these byte-for-byte.
        """
        return dict(self._head(_SNAPSHOT_KIND), datasets=[
            record.to_dict() for record in self._datasets.values()])

    def state_bytes(self) -> bytes:
        """Canonical byte serialisation of :meth:`state_dict`.

        One encoding that reads and stores no fragments: comparing two
        stores' states must not leave a copy of each catalogue behind,
        and a splice would cost one more catalogue-sized buffer.
        """
        return canonical(self.state_dict())

    def snapshot(self) -> bytes:
        """Checkpoint: persist the full state, then clear the WAL.

        Writes exactly :meth:`state_bytes`.  ``"datasets"`` sorts before
        every head key, so the document is one ``b", ".join`` of the
        record encodings (the array's opening in the first piece, its
        closing ``]`` in the last) and the encoded head.  With
        ``snapshot_every`` the pieces come from :meth:`_splice`.
        """
        if self.snapshot_every is None:
            pieces = [canonical(record.to_dict())
                      for record in self._datasets.values()]
        else:
            pieces, ends = self._splice()
        if not pieces:
            pieces = [_OPEN + b"]"]
        else:
            if isinstance(pieces[0], bytes):
                pieces[0] = _OPEN + pieces[0]
            if isinstance(pieces[-1], bytes):
                pieces[-1] += b"]"
        pieces.append(canonical(self._head(_SNAPSHOT_KIND))[1:])
        data = b", ".join(pieces)
        self.wal.checkpoint(data)
        if self.snapshot_every is not None:
            self._base, self._ends = data, ends
            self._fresh = []
            self._changed.clear()
        self._appends_since_snapshot = 0
        self.snapshots += 1
        return data

    def _splice(self) -> tuple[list, array]:
        """The record pieces of the next checkpoint, and the end offset of
        each record in it.

        Each run of records unchanged since the last checkpoint is one
        view of it (the first run with the array's opening, a run that
        ends the catalogue with its ``]``); a changed or recovered record
        is encoded again, and a record registered since brings the
        encoding its WAL record was made of.
        """
        base, ends, datasets = self._base, self._ends, self._datasets
        kept = len(ends)
        changed = self._changed
        redo = {i: datasets[dataset_id]
                for i, dataset_id in enumerate(datasets)
                if dataset_id in changed} if changed else {}
        fresh = self._fresh
        if None in fresh or (redo and next(reversed(redo)) >= kept):
            entered = islice(datasets.values(), kept, None)
            fresh = [canonical(record.to_dict())
                     if fragment is None or i in redo else fragment
                     for i, (fragment, record)
                     in enumerate(zip(fresh, entered), kept)]
        view = memoryview(base)
        pieces: list = []
        new_ends = array("Q")
        pos = len(_OPEN)  # where the next record starts in the new document
        start = 0  # the first kept record not placed yet
        for i in [i for i in redo if i < kept] + [kept]:
            if start < i:
                lo = ends[start - 1] + _SEP_LEN if start else len(_OPEN)
                shift = pos - lo
                run = ends[start:i]
                new_ends.extend(map(shift.__add__, run) if shift else run)
                pieces.append(view[lo if start else 0:
                                   ends[i - 1] + (i == len(datasets))])
                pos = ends[i - 1] + shift + _SEP_LEN
            if i < kept:
                fragment = canonical(redo[i].to_dict())
                pieces.append(fragment)
                pos += len(fragment)
                new_ends.append(pos)
                pos += _SEP_LEN
            start = i + 1
        pieces += fresh
        steps = map(_SEP_LEN.__add__, map(len, fresh))
        new_ends.extend(
            islice(accumulate(steps, initial=pos - _SEP_LEN), 1, None))
        return pieces, new_ends

    def _load_state(self, data: bytes) -> None:
        state = json.loads(data.decode("utf-8"))
        if state.get("kind") != _SNAPSHOT_KIND:
            raise MetadataError("not a metadata snapshot")
        self._restore(state, state["datasets"])  # replaying: nothing is logged

    # -- crash / recovery -------------------------------------------------------
    def crash(self, torn_tail_bytes: int = 0) -> None:
        """Kill the in-memory store, optionally tearing the WAL tail.

        ``torn_tail_bytes`` models a record that was mid-append when the
        process died: the final bytes of the log vanish, leaving a frame
        that replay must (and does) reject.  The durable medium — WAL +
        snapshot — survives; everything else is gone and the store refuses
        operations until :meth:`recover` runs.
        """
        self._reset()  # what a process death does to in-memory state
        self._available = False
        self.crashes += 1
        if torn_tail_bytes:
            self.wal.torn_tail(torn_tail_bytes)

    def recover(self) -> int:
        """Rebuild state from snapshot + WAL; returns records replayed.

        Replays only the trustworthy WAL prefix (CRC-verified frames before
        the first tear).  Operations that failed when first attempted fail
        identically and are skipped.  The store comes back available.
        """
        self._reset()
        self._available = True
        self._replaying = True
        try:
            snapshot = self.wal.snapshot
            if snapshot is not None:
                self._load_state(snapshot)
            result = self.wal.replay()
            # Cut the untrusted tail off the medium: a record appended
            # behind it would be unreadable at the next recovery.
            if result.discarded_bytes:
                self.wal.storage.truncate(result.discarded_bytes)
            for record in result.records:
                try:
                    self._apply(record.op, record.args)
                except (MetadataError, KeyError):
                    pass  # deterministic re-failure of an op that never applied
            self.discarded_tail_bytes += result.discarded_bytes
            self.replayed_records += len(result.records)
            self.recoveries += 1
            return len(result.records)
        finally:
            self._replaying = False

    def _apply(self, op: str, args: dict) -> None:
        if op == "register_project":
            super().register_project(
                args["name"],
                Schema.from_dict(args["basic_schema"]),
                {
                    step: Schema.from_dict(sdata)
                    for step, sdata in args["processing_schemas"].items()
                },
            )
        elif op == "register_dataset":
            super().register_dataset(
                args["dataset_id"], args["project"], args["url"], args["size"],
                args["checksum"], args["basic"], created=args["created"],
                tags=args["tags"],
            )
        elif op == "add_processing":
            super().add_processing(
                args["dataset_id"], args["name"], args["params"], args["results"],
                args["started"], args["finished"], status=args["status"],
                parent=args["parent"],
            )
        elif op == "tag":
            super().tag(args["dataset_id"], *args["tags"])
        elif op == "untag":
            super().untag(args["dataset_id"], *args["tags"])
        elif op == "index_field":
            super().index_field(args["name"])
        else:
            raise MetadataError(f"unknown WAL operation {op!r}")

    # -- reporting ------------------------------------------------------------
    def durability_stats(self) -> dict:
        """WAL / recovery counters for dashboards."""
        return {
            "wal_records": self.wal.appended,
            "wal_bytes": self.wal.size_bytes,
            "snapshots": self.snapshots,
            "crashes": self.crashes,
            "recoveries": self.recoveries,
            "replayed_records": self.replayed_records,
            "discarded_tail_bytes": self.discarded_tail_bytes,
        }
