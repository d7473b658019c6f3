"""Composable query language for the metadata repository.

    "Invisible (not-found, no-metadata) data is lost data" — slide 3.

Queries are small expression trees built with :class:`Q`::

    q = (Q.project("zebrafish") & (Q.field("plate") == 7)
         & (Q.field("wavelength") >= 480) & Q.tag("qc-passed"))
    hits = store.query(q)

Each node can both *evaluate* against a record and propose *candidates*
from the store's indexes, so equality and range terms on indexed fields,
tags, and projects prune the scan (measured in E4).  Candidates are *runs*:
posting lists (dataset ids in id order) borrowed from the index, never
copied, whose union is a superset of the matches.  The store walks the
runs in id order and confirms each candidate with :meth:`Query.matches`.
"""

from __future__ import annotations

import operator
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.metadata.records import DatasetRecord

if TYPE_CHECKING:  # pragma: no cover
    from repro.metadata.store import MetadataStore

_TOP_LEVEL = ("dataset_id", "project", "url", "size", "checksum", "created")

_OPS: dict[str, Callable[[Any, Any], bool]] = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def resolve_field(record: DatasetRecord, name: str) -> Any:
    """The value a field name denotes: a top-level attribute first, else
    the basic-metadata entry (what comparisons see and indexes store)."""
    if name in _TOP_LEVEL:
        return getattr(record, name)
    return record.basic.get(name)


class Query:
    """Base query node; combine with ``&``, ``|`` and ``~``."""

    def matches(self, record: DatasetRecord) -> bool:
        """Whether a record satisfies this query."""
        raise NotImplementedError

    def candidates(self, store: "MetadataStore") -> Optional[list[list[str]]]:
        """Candidate runs from the store's indexes, or None for a full scan."""
        return None

    def __and__(self, other: "Query") -> "Query":
        return And(self, other)

    def __or__(self, other: "Query") -> "Query":
        return Or(self, other)

    def __invert__(self) -> "Query":
        return Not(self)


class And(Query):
    """Conjunction; candidates are those of its most selective indexed child."""

    def __init__(self, *parts: Query):
        self.parts = parts

    def matches(self, record: DatasetRecord) -> bool:
        return all(p.matches(record) for p in self.parts)

    def candidates(self, store: "MetadataStore") -> Optional[list[list[str]]]:
        indexed = [r for r in (p.candidates(store) for p in self.parts) if r is not None]
        if not indexed:
            return None
        return min(indexed, key=lambda runs: sum(map(len, runs)))

    def __repr__(self) -> str:  # pragma: no cover
        return "(" + " & ".join(map(repr, self.parts)) + ")"


class Or(Query):
    """Disjunction; candidates only usable if *all* children are indexed."""

    def __init__(self, *parts: Query):
        self.parts = parts

    def matches(self, record: DatasetRecord) -> bool:
        return any(p.matches(record) for p in self.parts)

    def candidates(self, store: "MetadataStore") -> Optional[list[list[str]]]:
        out: list[list[str]] = []
        for part in self.parts:
            runs = part.candidates(store)
            if runs is None:
                return None
            out += runs
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return "(" + " | ".join(map(repr, self.parts)) + ")"


class Not(Query):
    """Negation; never index-assisted."""

    def __init__(self, inner: Query):
        self.inner = inner

    def matches(self, record: DatasetRecord) -> bool:
        return not self.inner.matches(record)

    def __repr__(self) -> str:  # pragma: no cover
        return f"~{self.inner!r}"


class FieldCmp(Query):
    """Comparison on a top-level attribute or basic-metadata field."""

    def __init__(self, name: str, op: str, value: Any):
        if op not in _OPS:
            raise ValueError(f"unknown operator {op!r}")
        self.name = name
        self.op = op
        self.value = value

    def matches(self, record: DatasetRecord) -> bool:
        actual = resolve_field(record, self.name)
        if actual is None:
            return False
        try:
            return _OPS[self.op](actual, self.value)
        except TypeError:
            return False

    def candidates(self, store: "MetadataStore") -> Optional[list[list[str]]]:
        index = store._field_indexes.get(self.name)
        if index is None:
            return None
        return index.runs(self.op, self.value)

    def __repr__(self) -> str:  # pragma: no cover
        return f"{self.name} {self.op} {self.value!r}"


class TagIs(Query):
    """Record carries the given tag (always index-assisted)."""

    def __init__(self, tag: str):
        self.tag = tag

    def matches(self, record: DatasetRecord) -> bool:
        return self.tag in record.tags

    def candidates(self, store: "MetadataStore") -> Optional[list[list[str]]]:
        posting = store._tag_index.get(self.tag)
        return [posting] if posting else []

    def __repr__(self) -> str:  # pragma: no cover
        return f"tag:{self.tag}"


class ProjectIs(Query):
    """Record belongs to the given project (always index-assisted)."""

    def __init__(self, project: str):
        self.project = project

    def matches(self, record: DatasetRecord) -> bool:
        return record.project == self.project

    def candidates(self, store: "MetadataStore") -> Optional[list[list[str]]]:
        posting = store._project_index.get(self.project)
        return [posting] if posting else []

    def __repr__(self) -> str:  # pragma: no cover
        return f"project:{self.project}"


class HasStep(Query):
    """Record has a successful processing step with the given name."""

    def __init__(self, name: str):
        self.name = name

    def matches(self, record: DatasetRecord) -> bool:
        return record.latest_result(self.name) is not None

    def __repr__(self) -> str:  # pragma: no cover
        return f"has_step:{self.name}"


class MatchAll(Query):
    """Matches every record (useful as a neutral element)."""

    def matches(self, record: DatasetRecord) -> bool:
        return True

    def __repr__(self) -> str:  # pragma: no cover
        return "*"


class _FieldRef:
    """Enables ``Q.field("size") > 4e6`` style comparisons."""

    def __init__(self, name: str):
        self._name = name

    def __eq__(self, other: Any) -> FieldCmp:  # type: ignore[override]
        return FieldCmp(self._name, "==", other)

    def __ne__(self, other: Any) -> FieldCmp:  # type: ignore[override]
        return FieldCmp(self._name, "!=", other)

    def __lt__(self, other: Any) -> FieldCmp:
        return FieldCmp(self._name, "<", other)

    def __le__(self, other: Any) -> FieldCmp:
        return FieldCmp(self._name, "<=", other)

    def __gt__(self, other: Any) -> FieldCmp:
        return FieldCmp(self._name, ">", other)

    def __ge__(self, other: Any) -> FieldCmp:
        return FieldCmp(self._name, ">=", other)

    __hash__ = None  # type: ignore[assignment]


class Q:
    """Entry points for building queries."""

    @staticmethod
    def field(name: str) -> _FieldRef:
        """Reference a field for comparison operators."""
        return _FieldRef(name)

    @staticmethod
    def tag(tag: str) -> TagIs:
        """Match records carrying ``tag``."""
        return TagIs(tag)

    @staticmethod
    def project(project: str) -> ProjectIs:
        """Match records of ``project``."""
        return ProjectIs(project)

    @staticmethod
    def has_step(name: str) -> HasStep:
        """Match records with a successful processing step ``name``."""
        return HasStep(name)

    @staticmethod
    def all() -> MatchAll:
        """Match everything."""
        return MatchAll()
