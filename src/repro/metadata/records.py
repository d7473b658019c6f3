"""Record types stored in the metadata repository.

Mirrors the figure on slide 8: a dataset has write-once **basic metadata**
and an append-only chain of **processing records** (METADATA 1 … METADATA N),
each carrying the parameters and results of one processing step.  Processing
records may name a parent step, expressing the B1 -> B2 style chains in the
figure.
"""

from __future__ import annotations

import types
from dataclasses import dataclass
from typing import Any, Mapping, Optional

from repro.metadata.errors import MetadataError, WriteOnceError


#: The tag set of every untagged record: one shared empty set, so a
#: catalogue of untagged frames holds no set per record.
NO_TAGS: frozenset[str] = frozenset()


def _frozen(mapping: Mapping[str, Any]) -> types.MappingProxyType:
    """A read-only view of a copied mapping (shallow write-once guard)."""
    return types.MappingProxyType(dict(mapping))


@dataclass
class ProcessingRecord:
    """One processing step appended to a dataset's metadata chain."""

    step_id: str
    name: str
    params: Mapping[str, Any]
    results: Mapping[str, Any]
    started: float
    finished: float
    status: str = "success"  # "success" | "failed"
    parent: Optional[str] = None  # step_id of the predecessor in a chain

    def __post_init__(self) -> None:
        if self.status not in ("success", "failed"):
            raise MetadataError(f"processing status must be success/failed, got {self.status!r}")
        if self.finished < self.started:
            raise MetadataError("processing record finished before it started")
        self.params = _frozen(self.params)
        self.results = _frozen(self.results)

    def to_dict(self) -> dict:
        """JSON-serialisable form."""
        return {
            "step_id": self.step_id,
            "name": self.name,
            "params": dict(self.params),
            "results": dict(self.results),
            "started": self.started,
            "finished": self.finished,
            "status": self.status,
            "parent": self.parent,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ProcessingRecord":
        """Inverse of :meth:`to_dict`."""
        return cls(**dict(data))


@dataclass
class DatasetRecord:
    """A registered dataset: identity + write-once basic metadata + chain."""

    dataset_id: str
    project: str
    url: str  # ADAL URL of the data, e.g. "hdfs://pool/itg/plate3/img.tif"
    size: int
    checksum: str
    created: float
    basic: Mapping[str, Any]
    #: Immutable: the store's ``add_processing`` rebinds it, so every
    #: record without steps shares the one empty tuple.
    processing: tuple[ProcessingRecord, ...] = ()
    #: Immutable: the store's ``tag``/``untag`` rebind it.
    tags: frozenset[str] = NO_TAGS

    def __post_init__(self) -> None:
        self.basic = _frozen(self.basic)
        self.tags = frozenset(self.tags) or NO_TAGS

    # -- write-once guards --------------------------------------------------
    def replace_basic(self, *_args, **_kwargs):  # pragma: no cover - guard
        """Always raises: basic metadata is write-once (slide 8)."""
        raise WriteOnceError("basic metadata is write-once")

    # -- chain helpers --------------------------------------------------------
    def step(self, step_id: str) -> ProcessingRecord:
        """Look up a processing record by step id."""
        for record in self.processing:
            if record.step_id == step_id:
                return record
        raise KeyError(step_id)

    def chain(self, step_id: str) -> list[ProcessingRecord]:
        """The ancestry of a step: [root, ..., step] following parents."""
        out = [self.step(step_id)]
        seen = {step_id}
        while out[0].parent is not None:
            parent = out[0].parent
            if parent in seen:
                raise MetadataError(f"processing chain cycle at {parent!r}")
            seen.add(parent)
            out.insert(0, self.step(parent))
        return out

    def latest_result(self, name: str) -> Optional[ProcessingRecord]:
        """Most recent successful processing record with the given step name."""
        for record in reversed(self.processing):
            if record.name == name and record.status == "success":
                return record
        return None

    def to_dict(self) -> dict:
        """JSON-serialisable form."""
        return {
            "dataset_id": self.dataset_id,
            "project": self.project,
            "url": self.url,
            "size": self.size,
            "checksum": self.checksum,
            "created": self.created,
            "basic": dict(self.basic),
            "processing": [p.to_dict() for p in self.processing],
            "tags": sorted(self.tags),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DatasetRecord":
        """Inverse of :meth:`to_dict`."""
        payload = dict(data)
        payload["processing"] = tuple(
            ProcessingRecord.from_dict(p) for p in payload["processing"])
        return cls(**payload)
