"""The metadata repository itself.

A :class:`MetadataStore` holds projects (each with its own basic-metadata
schema and optional per-step processing schemas), dataset records, tags, and
secondary indexes.  The paper's invariants are enforced:

* data and basic metadata are **write-once** (re-registration or mutation
  raises :class:`~repro.metadata.errors.WriteOnceError`);
* processing metadata is **append-only**, chained via parent step ids;
* everything is queryable (``query(Q...)``) and persistent (JSONL).
"""

from __future__ import annotations

import json
import os
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from heapq import merge
from itertools import chain, groupby, islice
from typing import Any, Iterable, Iterator, Mapping, Optional

from repro.metadata.errors import (
    MetadataError,
    MetadataUnavailableError,
    UnknownDatasetError,
    UnknownProjectError,
    WriteOnceError,
)
from repro.metadata.query import Query, resolve_field
from repro.metadata.records import NO_TAGS, DatasetRecord, ProcessingRecord
from repro.metadata.schema import Schema


#: Most posting lists a limited query merges lazily.  Measured at 30,000
#: ids: the first 10 of a lazy merge cost 0.02 ms over 64 lists and 0.3 ms
#: over 1,024 against 1.3-1.9 ms for sorting them all; past ~4,000 lists
#: creating the iterators costs more than the sort.
_MERGE_MAX_RUNS = 1024


def _post(posting: list[str], dataset_id: str) -> None:
    """Add an id to a posting list, keeping it in dataset-id order.

    Ids normally arrive in order (one append); a late one is ``insort``-ed.
    """
    if not posting or posting[-1] < dataset_id:
        posting.append(dataset_id)
    else:
        insort(posting, dataset_id)


class _FieldIndex:
    """The index over one field: sorted distinct values, a posting list each.

    ``postings`` maps a value to the ids of the records holding it, in
    dataset-id order; ``keys`` is the sorted list of those values and
    answers range terms by bisection.  Both answer with *runs* — a list of
    posting lists, handed out uncopied, whose union is a superset of the
    matches (the store confirms every candidate with ``matches()``).
    ``None`` means "ask the scan".

    Values that no index term can match stay out: ``None``/missing, NaN,
    and unhashable values (lists, dicts).  ``keys`` becomes ``None`` — range
    terms go to the scan — once stored values stop being mutually
    comparable (``int`` next to ``str``) or an unhashable one was skipped;
    equality terms keep their postings either way.
    """

    __slots__ = ("postings", "keys")

    def __init__(self) -> None:
        self.postings: dict[Any, list[str]] = {}
        self.keys: Optional[list[Any]] = []

    def add(self, value: Any, dataset_id: str) -> None:
        """Enter one record's value."""
        if value is None or value != value:
            return
        try:
            posting = self.postings.get(value)
        except TypeError:  # unhashable: equal only to an unhashable probe
            self.keys = None
            return
        if posting is not None:
            _post(posting, dataset_id)
            return
        self.postings[value] = [dataset_id]
        if self.keys is not None:
            try:
                insort(self.keys, value)
            except TypeError:
                self.keys = None

    def runs(self, op: str, value: Any) -> Optional[list[list[str]]]:
        """Posting lists covering ``field <op> value``, or None for the scan."""
        try:
            if op == "==":
                posting = self.postings.get(value)
                return [posting] if posting else []
            keys = self.keys
            if keys is None:
                return None
            if op == ">=":
                keys = keys[bisect_left(keys, value):]
            elif op == ">":
                keys = keys[bisect_right(keys, value):]
            elif op == "<":
                keys = keys[:bisect_left(keys, value)]
            elif op == "<=":
                keys = keys[:bisect_right(keys, value)]
            else:
                return None
        except TypeError:
            # Unhashable or incomparable probe: the scan's matches() already
            # treats such a comparison as "no match".
            return None
        postings = self.postings
        return [postings[key] for key in keys]


@dataclass
class ProjectInfo:
    """A registered project: its schemas and counters."""

    name: str
    basic_schema: Schema
    processing_schemas: dict[str, Schema] = field(default_factory=dict)
    dataset_count: int = 0


class MetadataStore:
    """In-memory metadata repository with indexes and JSONL persistence."""

    def __init__(self) -> None:
        self._available = True
        self._reset()

    def _reset(self) -> None:
        """Empty the repository: records, projects and every index."""
        self._projects: dict[str, ProjectInfo] = {}
        self._datasets: dict[str, DatasetRecord] = {}
        # Posting lists, each in dataset-id order: every id (what a scan
        # walks), then ids per project, per tag and per indexed field value.
        self._ids: list[str] = []
        self._project_index: dict[str, list[str]] = {}
        self._tag_index: dict[str, list[str]] = {}
        self._field_indexes: dict[str, _FieldIndex] = {}
        self._url_index: dict[str, str] = {}
        self._step_seq = 0

    def _index_record(self, record: DatasetRecord) -> None:
        """Enter a record into the repository and every index."""
        dataset_id = record.dataset_id
        self._datasets[dataset_id] = record
        self._projects[record.project].dataset_count += 1
        self._url_index[record.url] = dataset_id
        _post(self._ids, dataset_id)
        _post(self._project_index[record.project], dataset_id)
        for tag in record.tags:
            _post(self._tag_index.setdefault(tag, []), dataset_id)
        for name, index in self._field_indexes.items():
            index.add(resolve_field(record, name), dataset_id)

    # -- availability -------------------------------------------------------
    @property
    def available(self) -> bool:
        """Whether the repository accepts registrations right now."""
        return self._available

    def set_available(self, available: bool) -> None:
        """Flip the outage flag (used by the ``metadata_outage`` incident)."""
        self._available = bool(available)

    # -- projects -----------------------------------------------------------
    def register_project(
        self,
        name: str,
        basic_schema: Schema,
        processing_schemas: Optional[Mapping[str, Schema]] = None,
    ) -> ProjectInfo:
        """Register a project with its (project-dependent) schemas."""
        if name in self._projects:
            raise MetadataError(f"project {name!r} already registered")
        info = ProjectInfo(name, basic_schema, dict(processing_schemas or {}))
        self._projects[name] = info
        self._project_index[name] = []
        return info

    def project(self, name: str) -> ProjectInfo:
        """Look up a project."""
        try:
            return self._projects[name]
        except KeyError:
            raise UnknownProjectError(name) from None

    @property
    def projects(self) -> list[str]:
        """Registered project names, sorted."""
        return sorted(self._projects)

    # -- datasets -------------------------------------------------------------
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
        """Register a new dataset with validated, write-once basic metadata."""
        record = self._new_record(dataset_id, project, url, size, checksum,
                                  basic, created, tags)
        self._index_record(record)
        return record

    def _new_record(self, dataset_id: str, project: str, url: str, size: int,
                    checksum: str, basic: Mapping[str, Any], created: float = 0.0,
                    tags: Iterable[str] = ()) -> DatasetRecord:
        """The record :meth:`register_dataset` would enter, after every
        check it runs (key types, availability, write-once, project,
        schema); changes nothing."""
        self._check_strings("dataset id and url", dataset_id, url)
        if isinstance(tags, str):
            raise TypeError(f"tags must be a collection, got {tags!r}")
        tags = frozenset(tags)
        self._check_strings("tags", *tags)
        if not self._available:
            raise MetadataUnavailableError("metadata repository is down")
        if dataset_id in self._datasets:
            raise WriteOnceError(f"dataset {dataset_id!r} already registered")
        validated = self.project(project).basic_schema.validate(basic)
        return DatasetRecord(
            dataset_id=dataset_id,
            project=project,
            url=url,
            size=int(size),
            checksum=checksum,
            created=float(created),
            basic=validated,
            tags=tags,
        )

    @staticmethod
    def _check_strings(what: str, *values: Any) -> None:
        """Refuse non-string keys before anything changes: ids, URLs, tags
        and step names key dicts and sorted posting lists, and a durable
        store logs them for replay."""
        for value in values:
            if not isinstance(value, str):
                raise TypeError(f"{what} must be strings, got {value!r}")

    def get(self, dataset_id: str) -> DatasetRecord:
        """Fetch a dataset record."""
        try:
            return self._datasets[dataset_id]
        except KeyError:
            raise UnknownDatasetError(dataset_id) from None

    def by_url(self, url: str) -> Optional[DatasetRecord]:
        """The dataset registered at a data URL, or None."""
        dataset_id = self._url_index.get(url)
        return self._datasets[dataset_id] if dataset_id is not None else None

    def exists(self, dataset_id: str) -> bool:
        """Whether a dataset id is registered."""
        return dataset_id in self._datasets

    def __len__(self) -> int:
        return len(self._datasets)

    def datasets(self) -> Iterable[DatasetRecord]:
        """All records (insertion order)."""
        return self._datasets.values()

    # -- processing chain -----------------------------------------------------
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
        """Append a processing record (METADATA N) to a dataset's chain."""
        record = self.get(dataset_id)
        info = self.project(record.project)
        schema = info.processing_schemas.get(name)
        if schema is not None:
            results = schema.validate(results)
        if parent is not None:
            record.step(parent)  # raises KeyError when the parent is unknown
        self._step_seq += 1
        step = ProcessingRecord(
            step_id=f"step-{self._step_seq:08d}",
            name=name,
            params=params,
            results=results,
            started=started,
            finished=finished,
            status=status,
            parent=parent,
        )
        record.processing += (step,)
        return step

    # -- tagging ------------------------------------------------------------
    def tag(self, dataset_id: str, *tags: str) -> None:
        """Add tags to a dataset (idempotent)."""
        self._check_strings("dataset id and tags", dataset_id, *tags)
        record = self.get(dataset_id)
        for tag in tags:
            if tag not in record.tags:
                record.tags |= {tag}
                _post(self._tag_index.setdefault(tag, []), dataset_id)

    def untag(self, dataset_id: str, *tags: str) -> None:
        """Remove tags from a dataset (missing tags are ignored)."""
        record = self.get(dataset_id)
        for tag in tags:
            if tag in record.tags:
                record.tags = record.tags - {tag} or NO_TAGS
                posting = self._tag_index[tag]
                del posting[bisect_left(posting, dataset_id)]

    def tagged(self, tag: str) -> list[DatasetRecord]:
        """All records carrying ``tag``, in dataset-id order."""
        return [self._datasets[i] for i in self._tag_index.get(tag, ())]

    # -- indexes ---------------------------------------------------------------
    def index_field(self, name: str) -> None:
        """Build (and maintain) a secondary index over a field.

        One :class:`_FieldIndex` answers both equality and range terms
        (``>=``, ``>``, ``<``, ``<=``) on the field; see there for the
        values it leaves to the scan.
        """
        if name in self._field_indexes:
            return
        index = _FieldIndex()
        datasets = self._datasets
        for dataset_id in self._ids:  # id order: every add is an append
            index.add(resolve_field(datasets[dataset_id], name), dataset_id)
        self._field_indexes[name] = index

    # -- querying -----------------------------------------------------------------
    def _matching(self, q: Query, first_page: bool) -> Iterator[DatasetRecord]:
        """Records matching ``q``, lazily, in dataset-id order.

        The query's indexed terms name the posting lists to walk (the
        whole id list when there are none); ``matches()`` confirms each
        candidate, so the walk stops as soon as the caller does.
        ``first_page`` says the caller means to stop early.
        """
        runs = q.candidates(self)
        if runs is None:
            ids: Iterable[str] = self._ids
        elif len(runs) == 1:
            ids = runs[0]
        else:
            # Several lists: a lazy merge when a limit will stop it early,
            # else one sort (2-8x cheaper than merging to the end).  Either
            # way an id present in several lists comes out once.
            ordered = (merge(*runs) if first_page and len(runs) <= _MERGE_MAX_RUNS
                       else sorted(chain.from_iterable(runs)))
            ids = (dataset_id for dataset_id, _ in groupby(ordered))
        return filter(q.matches, map(self._datasets.__getitem__, ids))

    def query(self, q: Query, limit: Optional[int] = None) -> list[DatasetRecord]:
        """Records matching a :class:`~repro.metadata.query.Query`.

        Results come in dataset-id order; ``limit`` (a non-negative int)
        keeps the first ``limit`` of them and stops looking after that.
        """
        return list(islice(self._matching(q, limit is not None), limit))

    def count(self, q: Query) -> int:
        """Number of records matching a query."""
        return sum(1 for _ in self._matching(q, False))

    # -- persistence -----------------------------------------------------------------
    def _head(self, kind: str) -> dict:
        """Everything but the records: what :meth:`save` writes first."""
        return {
            "kind": kind,
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

    def _restore(self, head: Mapping[str, Any],
                 records: Iterable[Mapping[str, Any]]) -> None:
        """Rebuild from a :meth:`_head` and record dicts.  Records skip
        re-validation (the schema may have moved on, additively); step ids
        continue where the saved store stopped."""
        for proj in head["projects"]:
            self.register_project(
                proj["name"],
                Schema.from_dict(proj["basic_schema"]),
                {
                    step: Schema.from_dict(sdata)
                    for step, sdata in proj.get("processing_schemas", {}).items()
                },
            )
        self._step_seq = int(head.get("step_seq", 0))
        for data in records:
            self._index_record(DatasetRecord.from_dict(data))
        for name in head.get("indexed_fields", []):
            self.index_field(name)

    def save(self, path: str | os.PathLike) -> None:
        """Persist projects and datasets to a JSONL file."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(self._head("lsdf-metadata-store")) + "\n")
            for record in self._datasets.values():
                fh.write(json.dumps(record.to_dict()) + "\n")

    @classmethod
    def load(cls, path: str | os.PathLike) -> "MetadataStore":
        """Load a store previously written by :meth:`save`."""
        store = cls()
        with open(path, "r", encoding="utf-8") as fh:
            header = json.loads(fh.readline())
            if header.get("kind") != "lsdf-metadata-store":
                raise MetadataError(f"{path}: not a metadata-store file")
            store._restore(header, (json.loads(line) for line in fh
                                    if line.strip()))
        return store

    # -- reporting ------------------------------------------------------------------
    def stats(self) -> dict:
        """Headline numbers for dashboards and benches."""
        return {
            "projects": len(self._projects),
            "datasets": len(self._datasets),
            "processing_records": sum(len(r.processing) for r in self._datasets.values()),
            "tags": len(self._tag_index),
            "indexed_fields": sorted(self._field_indexes),
            "total_bytes": sum(r.size for r in self._datasets.values()),
        }
