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


class DurableMetadataStore(MetadataStore):
    """A :class:`MetadataStore` whose mutations survive a process crash.

    Parameters
    ----------
    wal:
        The write-ahead log (default: a fresh in-memory one).
    snapshot_every:
        Automatically checkpoint after this many WAL appends (None = only
        on explicit :meth:`snapshot` calls).  Checkpointing bounds recovery
        replay time and WAL growth.
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
        """Auto-checkpoint — called *after* a logged op has applied.

        Checkpointing before the apply would capture a state missing the op
        while simultaneously clearing its WAL record: acknowledged data
        silently lost.  Tested by the crash-at-snapshot-boundary cases.
        """
        if self._replaying:
            return
        if (
            self.snapshot_every is not None
            and self._appends_since_snapshot >= self.snapshot_every
        ):
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
        # Kept only with snapshot_every: each record's canonical encoding in
        # catalogue order, and (a dict as an ordered set) the records whose
        # encoding is stale, changed or recovered since it was made.
        self._fragments: dict[str, Optional[bytes]] = {}
        self._stale: dict[str, None] = {}

    def _index_record(self, record: DatasetRecord,
                      fragment: Optional[bytes] = None) -> None:
        """Index a record; without its encoding (recovery) it is stale."""
        super()._index_record(record)
        if self.snapshot_every is not None:
            self._fragments[record.dataset_id] = fragment
            if fragment is None:
                self._stale[record.dataset_id] = None

    def _mark_stale(self, dataset_id: str) -> None:
        if self.snapshot_every is not None:
            self._stale[dataset_id] = None

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
        step = super().add_processing(
            dataset_id, name, params, results, started, finished,
            status=status, parent=parent,
        )
        self._mark_stale(dataset_id)
        self._maybe_snapshot()
        return step

    def tag(self, dataset_id: str, *tags: str) -> None:
        self._check_strings("dataset id and tags", dataset_id, *tags)
        self._log("tag", {"dataset_id": dataset_id, "tags": list(tags)})
        super().tag(dataset_id, *tags)
        self._mark_stale(dataset_id)
        self._maybe_snapshot()

    def untag(self, dataset_id: str, *tags: str) -> None:
        self._log("untag", {"dataset_id": dataset_id, "tags": list(tags)})
        super().untag(dataset_id, *tags)
        self._mark_stale(dataset_id)
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

        Writes exactly :meth:`state_bytes`; with ``snapshot_every`` it
        re-encodes only stale records.  ``"datasets"`` sorts before every
        head key, so one join of the record encodings, the array's opening
        spliced into the first and the encoded head into the last, builds
        the document in a single buffer.
        """
        datasets = self._datasets
        if self.snapshot_every is None:
            pieces = [canonical(record.to_dict())
                      for record in datasets.values()]
        else:
            fragments = self._fragments
            for dataset_id in self._stale:
                fragments[dataset_id] = canonical(
                    datasets[dataset_id].to_dict())
            self._stale.clear()
            pieces = list(fragments.values())
        head = canonical(self._head(_SNAPSHOT_KIND))[1:]
        if pieces:
            pieces[0] = b'{"datasets": [' + pieces[0]
            pieces[-1] += b"], " + head
        else:
            pieces = [b'{"datasets": [], ' + head]
        data = b", ".join(pieces)
        self.wal.checkpoint(data)
        self._appends_since_snapshot = 0
        self.snapshots += 1
        return data

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
