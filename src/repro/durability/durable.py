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
first attempted (write-once violation, schema error) deterministically
fails again on replay and is skipped — recovering the same end state.
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
from repro.durability.wal import WriteAheadLog

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
        if not self._available:  # outage rejections are not WAL-worthy
            raise MetadataUnavailableError("metadata repository is down")
        self._log(
            "register_dataset",
            {
                "dataset_id": dataset_id,
                "project": project,
                "url": url,
                "size": int(size),
                "checksum": checksum,
                "basic": dict(basic),
                "created": float(created),
                "tags": sorted(tags),
            },
        )
        record = super().register_dataset(
            dataset_id, project, url, size, checksum, basic,
            created=created, tags=tags,
        )
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
        for item in items:
            dataset_id = item["dataset_id"]
            if dataset_id in self._datasets or dataset_id in seen:
                raise WriteOnceError(
                    f"dataset {dataset_id!r} already registered")
            seen.add(dataset_id)
            info = self.project(item["project"])
            info.basic_schema.validate(item["basic"])
        if not self._replaying:
            self.wal.append_batch([
                (
                    "register_dataset",
                    {
                        "dataset_id": item["dataset_id"],
                        "project": item["project"],
                        "url": item["url"],
                        "size": int(item["size"]),
                        "checksum": item["checksum"],
                        "basic": dict(item["basic"]),
                        "created": float(item.get("created", 0.0)),
                        "tags": sorted(item.get("tags", ())),
                    },
                )
                for item in items
            ])
            self._appends_since_snapshot += len(items)
        records = [
            MetadataStore.register_dataset(
                self,
                item["dataset_id"], item["project"], item["url"],
                item["size"], item["checksum"], item["basic"],
                created=item.get("created", 0.0),
                tags=item.get("tags", ()),
            )
            for item in items
        ]
        self._maybe_snapshot()
        return records

    def _reset(self) -> None:
        super()._reset()
        # Each record's canonical JSON (UTF-8) as the last checkpoint wrote
        # it; a record without one is stale (new, or changed since).
        self._fragments: dict[str, bytes] = {}

    def _index_record(self, record: DatasetRecord) -> None:
        super()._index_record(record)
        self._fragments.pop(record.dataset_id, None)

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
        self._fragments.pop(dataset_id, None)
        self._maybe_snapshot()
        return step

    def tag(self, dataset_id: str, *tags: str) -> None:
        self._log("tag", {"dataset_id": dataset_id, "tags": list(tags)})
        super().tag(dataset_id, *tags)
        self._fragments.pop(dataset_id, None)
        self._maybe_snapshot()

    def untag(self, dataset_id: str, *tags: str) -> None:
        self._log("untag", {"dataset_id": dataset_id, "tags": list(tags)})
        super().untag(dataset_id, *tags)
        self._fragments.pop(dataset_id, None)
        self._maybe_snapshot()

    def index_field(self, name: str) -> None:
        if name in self._field_indexes:  # idempotent: re-logging is noise
            return
        self._log("index_field", {"name": name})
        super().index_field(name)
        self._maybe_snapshot()

    # -- snapshot / state ------------------------------------------------------
    def state_dict(self) -> dict:
        """The complete repository state in canonical JSON-ready form.

        Two stores are in the same state iff their ``state_dict``\\ s (and
        hence their :meth:`state_bytes`) are equal — the recovery tests
        compare these byte-for-byte.
        """
        return dict(self._head(), datasets=[
            record.to_dict() for record in self._datasets.values()])

    def _head(self) -> dict:
        """:meth:`state_dict` without the datasets."""
        return {
            "kind": _SNAPSHOT_KIND,
            "version": 1,
            "projects": [
                {
                    "name": info.name,
                    "basic_schema": info.basic_schema.to_dict(),
                    "processing_schemas": {
                        step: schema.to_dict()
                        for step, schema in info.processing_schemas.items()
                    },
                }
                for info in self._projects.values()
            ],
            "indexed_fields": sorted(self._field_indexes),
            "step_seq": self._step_seq,
        }

    def state_bytes(self) -> bytes:
        """Canonical byte serialisation of :meth:`state_dict`.

        One ``json.dumps`` and stores no fragments: comparing two stores'
        states must not leave a copy of each catalogue behind, and a
        splice would cost one more catalogue-sized buffer.
        """
        return json.dumps(self.state_dict(), sort_keys=True).encode("utf-8")

    def snapshot(self) -> bytes:
        """Checkpoint: persist the full state, then clear the WAL.

        Writes exactly :meth:`state_bytes`, but re-encodes only the
        records changed since the last checkpoint; the rest are spliced
        in from their stored fragments.  ``"datasets"`` sorts before every
        head key, so the document is the datasets array followed by the
        rest of the encoded head.  One join builds it in a single buffer.
        """
        fragments = self._fragments
        pieces = [b'{"datasets": [']
        for dataset_id, record in self._datasets.items():
            fragment = fragments.get(dataset_id)
            if fragment is None:
                fragment = fragments[dataset_id] = json.dumps(
                    record.to_dict(), sort_keys=True).encode("utf-8")
            pieces += (fragment, b", ")
        if len(pieces) > 1:
            pieces.pop()  # no separator after the last record
        head = json.dumps(self._head(), sort_keys=True).encode("utf-8")
        pieces += (b"], ", head[1:])
        data = b"".join(pieces)
        self.wal.checkpoint(data)
        self._appends_since_snapshot = 0
        self.snapshots += 1
        return data

    def _load_state(self, data: bytes) -> None:
        state = json.loads(data.decode("utf-8"))
        if state.get("kind") != _SNAPSHOT_KIND:
            raise MetadataError("not a metadata snapshot")
        for proj in state["projects"]:
            super().register_project(
                proj["name"],
                Schema.from_dict(proj["basic_schema"]),
                {
                    step: Schema.from_dict(sdata)
                    for step, sdata in proj["processing_schemas"].items()
                },
            )
        for payload in state["datasets"]:
            self._index_record(DatasetRecord.from_dict(payload))
        self._step_seq = int(state["step_seq"])
        for name in state["indexed_fields"]:
            super().index_field(name)

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
